"""MC-W perf-lint rules: mapping patterns that are *correct* everywhere
but expensive under specific runtime configurations.

The correctness rules (MC-S/MC-P) ask "where does this crash or corrupt
data"; the perf rules ask "where does this pattern pay for itself" —
per-iteration prefault ioctls under Eager Maps, re-faulted first
touches under XNACK configs, double-indirected globals under USM,
copies a zero-copy mapping makes redundant.  Each rule's
``breaks_under`` matrix ("breaks" = pays the predicted overhead there)
is *derived* by evaluating a predicate over the same
:class:`~repro.check.static.rules.ConfigSemantics` the correctness
matrices use, and frozen against :data:`repro.check.registry.CANONICAL_MATRICES`
by the snapshot tests.

Detection is purely structural + refcount-abstract: a light present-set
walk over the structured IR (configuration-independent — refcount
bookkeeping is identical under all four configs), with the loop-scoped
rules (MC-W01/W03/W04) scanning the bodies of *symbolic* loops — a
pattern the extractor unrolled is finite and already priced exactly by
the cost walker, only unbounded-per-iteration patterns warrant a lint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ....core.config import RuntimeConfig
from ....omp.mapping import MapKind
from ....workloads.base import Workload
from ...findings import CheckReport, Finding
from ..ir import (
    AbstractBuffer,
    AllocOp,
    Branch,
    ClauseIR,
    EnterOp,
    ExitOp,
    Loop,
    ReturnNode,
    Seq,
    TargetOp,
    UpdateOp,
    WorkloadIR,
)
from ..rules import _relative_source, analyze_workload, rule_matrix
from .intervals import ONE, ZERO, Interval
from .model import CostEnv, pages_of

__all__ = [
    "PERF_RULE_IDS",
    "FAULT_STORM_PAGE_THRESHOLD",
    "LintHit",
    "lint_findings",
    "perf_findings",
    "perf_report",
]

#: MC-W03 fires when a loop's re-faulted pages total at least this many
FAULT_STORM_PAGE_THRESHOLD = 64

#: the MC-W rules; their overhead predicates live with every other static
#: rule's in :mod:`repro.check.static.rules`
PERF_RULE_IDS: Tuple[str, ...] = (
    "MC-W01", "MC-W02", "MC-W03", "MC-W04", "MC-W05",
)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


@dataclass
class LintHit:
    """One raw MC-W (or MC-A) detector hit; hits sharing a (rule, site
    key) fold into one finding."""

    rule_id: str
    site_key: str           #: dedup key (site or global name)
    buffer: str
    message: str
    lineno: int
    tid: int


class _Detector:
    """One refcount-abstract pass over a thread body, firing MC-W rules."""

    def __init__(self, ir: WorkloadIR, env: CostEnv):
        self.ir = ir
        self.env = env
        self.raw: List[LintHit] = []
        self.tid = 0
        #: (rule, site) pairs already reported, across threads
        self._fired = set()

    def fire(self, rule_id: str, site_key: str, buffer: str,
             message: str, lineno: int) -> None:
        self._fired.add((rule_id, site_key))
        self.raw.append(LintHit(
            rule_id, site_key, buffer, message, lineno, self.tid))

    # -- refcount abstraction (mirror of the cost walker, counts only) ----
    @staticmethod
    def _join(a: Dict[str, Interval], b: Dict[str, Interval]) -> Dict[str, Interval]:
        out = {}
        for k in set(a) | set(b):
            iv = a.get(k, ZERO).join(b.get(k, ZERO))
            if not iv.is_zero:
                out[k] = iv
        return out

    def _apply_enter(self, rc: Dict[str, Interval], clause: ClauseIR) -> None:
        if clause.buf.unknown or clause.buf.weak or clause.kind is None:
            return
        if clause.kind in (MapKind.RELEASE, MapKind.DELETE):
            return
        for site in clause.buf.sites:
            cur = rc.get(site.site, ZERO)
            rc[site.site] = (cur.add(ONE) if clause.buf.strong
                             else cur.join(cur.add(ONE)))

    def _apply_exit(self, rc: Dict[str, Interval], clause: ClauseIR) -> None:
        if clause.buf.unknown or clause.buf.weak or clause.kind is None:
            return
        for site in clause.buf.sites:
            cur = rc.get(site.site, ZERO)
            if clause.kind is MapKind.DELETE and clause.buf.strong:
                rc.pop(site.site, None)
            elif clause.buf.strong:
                nxt = cur.sub1_clamped()
                if nxt.is_zero:
                    rc.pop(site.site, None)
                else:
                    rc[site.site] = nxt
            else:
                rc[site.site] = cur.join(cur.sub1_clamped())

    # -- structural walk ---------------------------------------------------
    def walk(self, node, rc: Dict[str, Interval]) -> Optional[Dict[str, Interval]]:
        """Returns the post-state, or ``None`` when the path returned."""
        if isinstance(node, Seq):
            for item in node.items:
                rc = self.walk(item, rc)
                if rc is None:
                    return None
            return rc
        if isinstance(node, Branch):
            a = self.walk(node.then, dict(rc))
            b = self.walk(node.orelse, rc)
            if a is None:
                return b
            if b is None:
                return a
            return self._join(a, b)
        if isinstance(node, ReturnNode):
            return None
        if isinstance(node, Loop):
            return self._loop(node, rc)
        return self._op(node, rc)

    def _loop(self, loop: Loop, rc: Dict[str, Interval]) -> Dict[str, Interval]:
        self._scan_loop(loop, rc)
        # stabilize the entry state (join-fixpoint), then one detection pass
        cur = dict(rc)
        for _ in range(8):
            out = self._walk_silent(loop.body, dict(cur))
            merged = self._join(cur, out) if out is not None else cur
            if merged == cur:
                break
            cur = merged
        out = self.walk(loop.body, dict(cur))
        post = cur if out is None else self._join(cur, out)
        if loop.trips is not None or loop.min_trips >= 1:
            # the body definitely ran: its exit state is reachable too
            return post if out is None else self._join(out, post)
        return post

    def _walk_silent(self, node, rc):
        fired, raw = self._fired, self.raw
        self._fired, self.raw = set(self._fired), []
        try:
            return self.walk(node, rc)
        finally:
            self._fired, self.raw = fired, raw

    def _op(self, op, rc: Dict[str, Interval]) -> Dict[str, Interval]:
        if isinstance(op, AllocOp):
            if op.buf is not None:
                rc.pop(op.buf.site, None)
            return rc
        if isinstance(op, EnterOp):
            for clause in op.clauses:
                self._check_redundant(op, clause, rc)
                self._apply_enter(rc, clause)
            return rc
        if isinstance(op, ExitOp):
            for clause in op.clauses:
                self._apply_exit(rc, clause)
            return rc
        if isinstance(op, TargetOp):
            for clause in op.clauses:
                self._check_redundant(op, clause, rc)
                self._apply_enter(rc, clause)
            if not op.nowait:
                for clause in op.clauses:
                    self._apply_exit(rc, clause)
            return rc
        if isinstance(op, UpdateOp):
            self._check_noop_update(op, rc)
            return rc
        return rc

    # -- MC-W02 ------------------------------------------------------------
    def _check_redundant(self, op, clause: ClauseIR, rc: Dict[str, Interval]) -> None:
        if (clause.kind is None or not clause.kind.copies_to_device
                or clause.always or not clause.buf.strong):
            return
        site = clause.buf.only
        if rc.get(site.site, ZERO).lo >= 1:
            self.fire(
                "MC-W02", site.site, site.name,
                f"map '{clause.kind.value}: {site.name}' at a point where "
                "the buffer is definitely present: the copy never happens "
                "again (refcount bump only); drop the motion intent or use "
                "'always' if a refresh was meant",
                op.lineno)

    # -- MC-W05 ------------------------------------------------------------
    def _check_noop_update(self, op: UpdateOp, rc: Dict[str, Interval]) -> None:
        for refs in (op.to, op.from_):
            for ref in refs:
                if not ref.strong:
                    continue
                site = ref.only
                if rc.get(site.site, ZERO).lo >= 1:
                    self.fire(
                        "MC-W05", site.site, site.name,
                        f"'target update' of {site.name!r} while it is "
                        "definitely present: under every zero-copy "
                        "configuration the device already shares these "
                        "bytes and the update is pure overhead",
                        op.lineno)

    # -- loop-scoped rules (MC-W01 / MC-W03 / MC-W04) ------------------------
    def _scan_loop(self, loop: Loop, rc: Dict[str, Interval]) -> None:
        enters: Dict[str, Tuple[AbstractBuffer, int]] = {}
        exits: Dict[str, int] = {}
        allocs: Dict[str, AbstractBuffer] = {}
        kernel_sites: Dict[str, Tuple[str, int]] = {}
        globals_in_loop: Dict[str, Tuple[str, int]] = {}

        def scan(node):
            if isinstance(node, Seq):
                for item in node.items:
                    scan(item)
            elif isinstance(node, Branch):
                scan(node.then)
                scan(node.orelse)
            elif isinstance(node, Loop):
                scan(node.body)
            elif isinstance(node, AllocOp):
                if node.buf is not None:
                    allocs[node.buf.site] = node.buf
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
                    for s in c.buf.sites:
                        kernel_sites.setdefault(s.site, (node.kernel, node.lineno))
                for t in node.touches:
                    for s in t.sites:
                        kernel_sites.setdefault(s.site, (node.kernel, node.lineno))
                for g in node.globals_used:
                    globals_in_loop.setdefault(g, (node.kernel, node.lineno))

        scan(loop.body)
        trips = loop.trips if loop.trips is not None else loop.min_trips
        trips_txt = (
            f"{loop.trips} iterations" if loop.trips is not None
            else f">= {loop.min_trips} iteration(s)"
        )

        # MC-W01: enter/exit churn of the same site every iteration
        for key, (site, lineno) in sorted(enters.items()):
            if key in exits:
                self.fire(
                    "MC-W01", key, site.name,
                    f"{site.name!r} is mapped and unmapped on every "
                    f"iteration of the loop at line {loop.lineno} "
                    f"({trips_txt}): under Eager Maps each enter pays a "
                    "prefault ioctl for the same pages — hoist the "
                    "enter/exit pair out of the loop",
                    lineno)

        # MC-W03: per-iteration fresh allocation touched by a kernel
        for key, site in sorted(allocs.items()):
            if key not in kernel_sites:
                continue
            kernel, lineno = kernel_sites[key]
            nbytes = site.nbytes
            pages = pages_of(nbytes, self.env.page_size) if nbytes else 0
            total = pages * max(trips, 1)
            if nbytes is not None and total < FAULT_STORM_PAGE_THRESHOLD:
                continue
            total_txt = f"~{total}" if nbytes is not None else "an unbounded number of"
            self.fire(
                "MC-W03", key, site.name,
                f"{site.name!r} is freshly allocated every iteration of the "
                f"loop at line {loop.lineno} and touched by kernel "
                f"{kernel!r}: each allocation re-faults its pages under "
                f"XNACK-serviced configs ({total_txt} first-touch faults "
                f"over {trips_txt}) — reuse one allocation instead",
                lineno)

        # MC-W04: kernels in a hot loop reading declare-target globals
        for gname, (kernel, lineno) in sorted(globals_in_loop.items()):
            self.fire(
                "MC-W04", f"global:{gname}", gname,
                f"kernel {kernel!r} reads declare-target global {gname!r} "
                f"on every iteration of the loop at line {loop.lineno} "
                f"({trips_txt}): under USM the GPU global is a pointer "
                "into host memory and every access double-indirects — "
                "pass the value as a kernel argument or map it",
                lineno)

    # -- entry --------------------------------------------------------------
    def run(self) -> List[LintHit]:
        for program in self.ir.threads:
            self.tid = program.tid
            self.walk(program.body, {})
        return self.raw


def lint_findings(raw: List[LintHit], ir: WorkloadIR) -> List[Finding]:
    """Fold raw MC-W/MC-A detector hits into findings: one per (rule,
    site key), later hits as ``related``, matrices derived per rule."""
    grouped: Dict[Tuple[str, str], List[LintHit]] = {}
    for r in raw:
        grouped.setdefault((r.rule_id, r.site_key), []).append(r)
    source = _relative_source(ir.source_file)
    findings: List[Finding] = []
    for (rule_id, _key), items in sorted(grouped.items()):
        primary = items[0]
        breaks_under, passes_under = rule_matrix(rule_id)
        findings.append(Finding(
            rule_id=rule_id,
            buffer=primary.buffer,
            workload=ir.name,
            message=primary.message,
            tid=primary.tid,
            breaks_under=breaks_under,
            passes_under=passes_under,
            related=tuple(
                f"line {r.lineno} (tid {r.tid})" for r in items[1:]
            ),
            source=(source, primary.lineno) if source else None,
        ))
    return findings


def perf_findings(ir: WorkloadIR, env: Optional[CostEnv] = None) -> List[Finding]:
    """Run the MC-W detectors over one extracted workload IR."""
    env = env or CostEnv.for_config(RuntimeConfig.COPY)
    return lint_findings(_Detector(ir, env).run(), ir)


def perf_report(workload: Workload, name: str = "") -> CheckReport:
    """Extract one workload and run the perf lint (pure static path)."""
    return analyze_workload(workload, name, flow=False, perf=True)[0]
