"""MC-A affinity-lint rules: placements that pay the Infinity Fabric.

The MC-W perf rules ask "where does this mapping pattern cost"; the
MC-A rules add the topology axis: the *same* pattern that is harmless
on one socket becomes link traffic when the placement policy puts the
buffer's pages on a remote socket.  Every rule therefore only fires
when the analysis point's :class:`~.model.PlaceSpec` actually places
pages remotely (``remote_pages > 0`` — in particular, nothing can fire
on a 1-socket topology or under the executing socket's first-touch
placement, which is what keeps the clean registry finding-free under
the default spec).

Break/pass matrices are derived from the same
:class:`~repro.check.static.rules.ConfigSemantics` table the MC-S/MC-W
matrices come from, evaluated per configuration:

* MC-A01 — remote first-touch faults cost where XNACK services them;
* MC-A02 — cross-socket map churn costs where map-enters actually
  install/move pages (Copy's shadow copies, Eager's prefault ioctls);
* MC-A03 — the remote-access penalty applies where kernels read host
  memory directly (every zero-copy configuration);
* MC-A04 — a link-saturating shadow copy exists only where maps
  materialize shadow copies (Copy).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ....core.config import RuntimeConfig
from ....memory.layout import MIB
from ....workloads.base import Workload
from ...findings import CheckReport, Finding
from ..ir import (
    AbstractBuffer,
    Branch,
    EnterOp,
    ExitOp,
    Loop,
    Seq,
    TargetOp,
    WorkloadIR,
)
from ..rules import analyze_workload
from ..cost.model import CostEnv, pages_of
from ..cost.rules import LintHit, lint_findings
from .model import PlaceSpec

__all__ = [
    "PLACE_RULE_IDS",
    "REMOTE_FAULT_STORM_PAGE_THRESHOLD",
    "HOT_REMOTE_PAGE_VISITS",
    "LINK_SATURATION_BYTES",
    "place_findings",
    "place_report",
]

#: MC-A01 fires when a single first touch faults at least this many
#: remote pages
REMOTE_FAULT_STORM_PAGE_THRESHOLD = 64
#: MC-A03 fires when a loop's kernels visit at least this many remote
#: pages in total
HOT_REMOTE_PAGE_VISITS = 256
#: MC-A04 fires when one copying enter sources at least this many
#: remote bytes
LINK_SATURATION_BYTES = 32 * MIB

#: the MC-A rules; their "pays the remote-link cost" predicates live with
#: every other static rule's in :mod:`repro.check.static.rules`
PLACE_RULE_IDS: Tuple[str, ...] = ("MC-A01", "MC-A02", "MC-A03", "MC-A04")


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


class _PlaceDetector:
    """One structural pass over a thread body, firing MC-A rules for a
    given (topology, placement) analysis point."""

    def __init__(self, ir: WorkloadIR, env: CostEnv, spec: PlaceSpec):
        self.ir = ir
        self.env = env
        self.spec = spec
        self.raw: List[LintHit] = []
        self.tid = 0
        self._fired = set()
        #: canonical site registry (folded sizes may live on the thread's
        #: buffer table rather than on individual refs)
        self.sites: Dict[str, AbstractBuffer] = {}
        for th in ir.threads:
            self.sites.update(th.buffers)

    def fire(self, rule_id: str, site_key: str, buffer: str,
             message: str, lineno: int) -> None:
        self.raw.append(LintHit(
            rule_id, site_key, buffer, message, lineno, self.tid))
        self._fired.add((rule_id, site_key))

    def _pages(self, site: AbstractBuffer) -> Optional[int]:
        nbytes = self.sites.get(site.site, site).nbytes
        if nbytes is None:
            return None
        return pages_of(nbytes, self.env.page_size)

    def _remote(self, site: AbstractBuffer) -> Optional[int]:
        pages = self._pages(site)
        if pages is None:
            return None
        return self.spec.remote_pages(pages)

    # -- structural walk ---------------------------------------------------
    def walk(self, node) -> None:
        if isinstance(node, Seq):
            for item in node.items:
                self.walk(item)
        elif isinstance(node, Branch):
            self.walk(node.then)
            self.walk(node.orelse)
        elif isinstance(node, Loop):
            self._scan_loop(node)
            self.walk(node.body)
        elif isinstance(node, TargetOp):
            self._check_target(node)
        elif isinstance(node, EnterOp):
            self._check_copy_enter(node)

    # -- MC-A01: remote first-touch storm ---------------------------------
    def _check_target(self, op: TargetOp) -> None:
        self._check_copy_enter(op)
        seen = set()
        fault_sites: List[AbstractBuffer] = []
        for clause in op.clauses:
            if clause.buf.strong and clause.buf.only.site not in seen:
                seen.add(clause.buf.only.site)
                fault_sites.append(clause.buf.only)
        for touch in op.touches:
            if touch.strong and touch.only.site not in seen:
                seen.add(touch.only.site)
                fault_sites.append(touch.only)
        for site in fault_sites:
            if ("MC-A01", site.site) in self._fired:
                continue
            remote = self._remote(site)
            if remote is None or remote < REMOTE_FAULT_STORM_PAGE_THRESHOLD:
                continue
            self.fire(
                "MC-A01", site.site, site.name,
                f"kernel {op.kernel!r} first-touches {site.name!r}, whose "
                f"placement ({self.spec.label()}) puts {remote} of its "
                f"pages on a remote socket: each first-touch fault is "
                "serviced over the Infinity Fabric link — pin the buffer "
                "to the executing socket or prefault it locally",
                op.lineno)

    # -- MC-A04: link-saturating shadow copy -------------------------------
    def _check_copy_enter(self, op) -> None:
        for clause in op.clauses:
            if (clause.kind is None or not clause.kind.copies_to_device
                    or not clause.buf.strong):
                continue
            site = clause.buf.only
            if ("MC-A04", site.site) in self._fired:
                continue
            remote = self._remote(site)
            if remote is None:
                continue
            remote_bytes = remote * self.env.page_size
            if remote_bytes < LINK_SATURATION_BYTES:
                continue
            self.fire(
                "MC-A04", site.site, site.name,
                f"map '{clause.kind.value}: {site.name}' copies "
                f"{remote_bytes >> 20} MiB from remote-placed pages "
                f"({self.spec.label()}): under Copy the H2D shadow copy "
                "streams these bytes over the inter-socket link — place "
                "the source buffer on the executing socket",
                op.lineno)

    # -- loop-scoped rules (MC-A02 / MC-A03) --------------------------------
    def _scan_loop(self, loop: Loop) -> None:
        enters: Dict[str, Tuple[AbstractBuffer, int]] = {}
        exits: Dict[str, int] = {}
        kernel_sites: Dict[str, Tuple[AbstractBuffer, str, int]] = {}

        def scan(node):
            if isinstance(node, Seq):
                for item in node.items:
                    scan(item)
            elif isinstance(node, Branch):
                scan(node.then)
                scan(node.orelse)
            elif isinstance(node, Loop):
                scan(node.body)
            elif isinstance(node, EnterOp):
                for c in node.clauses:
                    if c.buf.strong and c.kind is not None:
                        enters[c.buf.only.site] = (c.buf.only, node.lineno)
            elif isinstance(node, ExitOp):
                for c in node.clauses:
                    if c.buf.strong and c.kind is not None:
                        exits[c.buf.only.site] = node.lineno
            elif isinstance(node, TargetOp):
                for c in node.clauses:
                    if c.buf.strong:
                        s = c.buf.only
                        kernel_sites.setdefault(
                            s.site, (s, node.kernel, node.lineno))

        scan(loop.body)
        trips = loop.trips if loop.trips is not None else loop.min_trips
        trips_txt = (
            f"{loop.trips} iterations" if loop.trips is not None
            else f">= {loop.min_trips} iteration(s)"
        )

        # MC-A02: enter/exit churn of a remote-placed site every iteration
        for key, (site, lineno) in sorted(enters.items()):
            if key not in exits or ("MC-A02", key) in self._fired:
                continue
            remote = self._remote(site)
            if not remote:
                continue
            self.fire(
                "MC-A02", key, site.name,
                f"{site.name!r} is mapped and unmapped on every iteration "
                f"of the loop at line {loop.lineno} ({trips_txt}) with "
                f"{remote} remote-placed pages ({self.spec.label()}): "
                "each enter re-installs those pages across the link under "
                "Copy/Eager Maps — hoist the pair out of the loop or pin "
                "the buffer home",
                lineno)

        # MC-A03: hot-loop kernels over remote-placed pages
        for key, (site, kernel, lineno) in sorted(kernel_sites.items()):
            if ("MC-A03", key) in self._fired:
                continue
            remote = self._remote(site)
            if not remote:
                continue
            visits = remote * max(trips, 1)
            if visits < HOT_REMOTE_PAGE_VISITS:
                continue
            self.fire(
                "MC-A03", key, site.name,
                f"kernel {kernel!r} visits {remote} remote-placed pages of "
                f"{site.name!r} ({self.spec.label()}) on every iteration "
                f"of the loop at line {loop.lineno} ({trips_txt}, ~{visits} "
                "remote page visits): every zero-copy access pays the "
                "remote-socket penalty — pin the buffer to the executing "
                "socket",
                lineno)

    # -- entry --------------------------------------------------------------
    def run(self) -> List[LintHit]:
        for program in self.ir.threads:
            self.tid = program.tid
            self.walk(program.body)
        return self.raw


def place_findings(
    ir: WorkloadIR,
    spec: Optional[PlaceSpec] = None,
    env: Optional[CostEnv] = None,
) -> List[Finding]:
    """Run the MC-A detectors over one extracted workload IR at one
    (topology, placement) analysis point."""
    spec = spec or PlaceSpec()
    env = env or CostEnv.for_config(RuntimeConfig.IMPLICIT_ZERO_COPY)
    return lint_findings(_PlaceDetector(ir, env, spec).run(), ir)


def place_report(
    workload: Workload, name: str = "", spec: Optional[PlaceSpec] = None
) -> CheckReport:
    """Extract one workload and run the affinity lint (pure static path)."""
    return analyze_workload(workload, name, flow=False,
                            place=spec or PlaceSpec())[0]
