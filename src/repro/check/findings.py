"""MapCheck rules, findings and report rendering.

A *rule* is a stable identifier for one class of mapping defect; a
*finding* is one detected instance, carrying the buffer, the workload it
came from and — the part that encodes the paper's §IV.C portability
argument — the per-configuration applicability: the same program can be
correct under USM/Implicit Zero-Copy on an MI300A yet crash or corrupt
data under Legacy Copy (the discrete-GPU deployment model), and a
finding says under which of the four runtime configurations it bites.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import ALL_CONFIGS, RuntimeConfig

__all__ = [
    "Severity",
    "Analysis",
    "Rule",
    "RULES",
    "Finding",
    "CheckReport",
]


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


class Analysis(enum.Enum):
    """The cooperating MapCheck analyses (three dynamic, two static)."""

    LINT = "portability-lint"
    SANITIZER = "mapping-sanitizer"
    RACES = "race-detector"
    STATIC = "static-dataflow"
    PERF = "perf-lint"
    PLACE = "place-lint"


@dataclass(frozen=True)
class Rule:
    """One MapCheck rule (stable id, never renumber).

    ``family`` groups dynamic rules with their static (MapFlow)
    counterparts: a dynamic finding and a static finding with the same
    family describe the same defect class observed through different
    analyses (e.g. MC-S01/MC-S03 vs MC-S10 are all family "refcount").

    ``breaks`` says whether the defect crashes or corrupts data under a
    configuration (for the perf and affinity lints: whether the pattern
    pays its cost there); every finding of the rule carries the
    :attr:`matrix` derived from it.  ``None`` marks a rule whose matrix
    depends on the finding: MC-P04's is whatever configurations actually
    diverged.
    """

    id: str
    title: str
    analysis: Analysis
    severity: Severity
    summary: str
    family: str = ""
    breaks: Optional[Callable[[RuntimeConfig], bool]] = None

    @property
    def matrix(
        self,
    ) -> Optional[Tuple[Tuple[RuntimeConfig, ...], Tuple[RuntimeConfig, ...]]]:
        """``(breaks_under, passes_under)`` over :data:`ALL_CONFIGS`."""
        if self.breaks is None:
            return None
        return (tuple(c for c in ALL_CONFIGS if self.breaks(c)),
                tuple(c for c in ALL_CONFIGS if not self.breaks(c)))


_ALL_RULES = (
    # -- portability lint (repro.check.lint)
    # an uncovered touch works only where XNACK services the fault
    Rule("MC-P01", "missing-map", Analysis.LINT, Severity.ERROR,
         "kernel touches host memory no live map entry or declare-target "
         "global covers", family="missing-map",
         breaks=lambda c: not c.needs_xnack),
    # zero-copy aliasing shows the host the device writes a missing
    # 'from' discards; only a shadow copy loses them
    Rule("MC-P02", "tofrom-missing-from", Analysis.LINT, Severity.ERROR,
         "kernel-written buffer feeds an application output but is never "
         "copied back to the host", family="missing-from",
         breaks=lambda c: not c.is_zero_copy),
    # only USM's pointer-to-host globals see the new host value; every
    # device-copy configuration reads the stale snapshot
    Rule("MC-P03", "stale-global", Analysis.LINT, Severity.ERROR,
         "kernel reads a declare-target global whose host value changed "
         "after the last update/sync", family="stale-global",
         breaks=lambda c: not c.globals_as_pointer),
    Rule("MC-P04", "config-divergent-output", Analysis.LINT, Severity.ERROR,
         "workload outputs differ between runtime configurations "
         "(differential evidence of a latent mapping bug)",
         family="config-divergence"),
    # -- mapping sanitizer (repro.check.sanitizer): refcount bookkeeping
    # exists under every configuration, so these are wrong everywhere...
    Rule("MC-S01", "refcount-underflow", Analysis.SANITIZER, Severity.ERROR,
         "map-exit would drive a present entry's refcount below zero",
         family="refcount", breaks=lambda c: True),
    # ...except the teardown leak, which only pins device memory where a
    # shadow copy exists
    Rule("MC-S02", "map-leak-at-teardown", Analysis.SANITIZER, Severity.WARNING,
         "present-table entry still live at device teardown", family="leak",
         breaks=lambda c: not c.is_zero_copy),
    Rule("MC-S03", "unmap-of-absent", Analysis.SANITIZER, Severity.ERROR,
         "unmap/release of a buffer with no present-table entry "
         "(double unmap or never mapped)", family="refcount",
         breaks=lambda c: True),
    Rule("MC-S04", "use-after-unmap-kernel-arg", Analysis.SANITIZER, Severity.ERROR,
         "a kernel argument's mapping was destroyed while the kernel was "
         "in flight", family="inflight-unmap", breaks=lambda c: True),
    Rule("MC-S05", "always-clause-misuse", Analysis.SANITIZER, Severity.ERROR,
         "'always' modifier on a map kind that never transfers",
         family="always-misuse", breaks=lambda c: True),
    # -- trace race detector (repro.check.races)
    # present-table mutation order is racy under every runtime
    Rule("MC-R01", "concurrent-map-race", Analysis.RACES, Severity.WARNING,
         "host threads perform conflicting map-enter/map-exit on "
         "overlapping ranges with no synchronization edge", family="map-race",
         breaks=lambda c: True),
    # the kernel only sees the racing host write where no shadow copy
    # isolates it (every zero-copy configuration)
    Rule("MC-R02", "host-write-kernel-read-race", Analysis.RACES, Severity.ERROR,
         "host writes a buffer while a kernel reading it is in flight, "
         "without waiting on its completion signal", family="host-write-race",
         breaks=lambda c: c.is_zero_copy),
    # -- MapFlow: static map-clause dataflow analysis (repro.check.static)
    # an underflowing exit corrupts the present table in every runtime —
    # refcount bookkeeping exists under zero-copy too
    Rule("MC-S10", "refcount-underflow-on-some-path", Analysis.STATIC,
         Severity.ERROR,
         "a program path exists on which a map-exit runs against a "
         "definitely-absent present-table entry (double unmap, unbalanced "
         "exit, or exit without a matching enter)", family="refcount",
         breaks=lambda c: True),
    # destroying a mapping out from under an in-flight region is a
    # use-after-free of runtime metadata regardless of configuration
    Rule("MC-S11", "use-after-exit-data", Analysis.STATIC, Severity.ERROR,
         "a map-exit can destroy a mapping while a nowait target region "
         "referencing the buffer is statically in flight", family="inflight-unmap",
         breaks=lambda c: True),
    # a leaked entry only pins memory where a shadow copy exists
    Rule("MC-S12", "map-leak-at-thread-end", Analysis.STATIC, Severity.WARNING,
         "a buffer is still mapped on every path reaching the end of its "
         "owning thread's body", family="leak",
         breaks=lambda c: not c.is_zero_copy),
    # an uncovered raw-pointer touch is serviced by XNACK or nothing
    Rule("MC-P10", "touches-not-covered-on-any-path", Analysis.STATIC,
         Severity.ERROR,
         "a kernel raw-pointer touch is covered by no live map entry, "
         "target map clause, or declare-target global on any path to the "
         "dispatch", family="missing-map",
         breaks=lambda c: not c.needs_xnack),
    # -- MapRace: static may-happen-in-parallel race analysis
    # (repro.check.static.race)
    # the kernel only sees the racing host write where no shadow copy
    # isolates it (every zero-copy configuration)
    Rule("MC-S20", "static-host-write-kernel-read-race", Analysis.STATIC,
         Severity.ERROR,
         "a host write may happen in parallel with a kernel reading the "
         "same buffer (no wait edge orders them): benign under Copy's "
         "shadow isolation, a data race under every zero-copy "
         "configuration", family="host-write-race",
         breaks=lambda c: c.is_zero_copy),
    # present-table mutation order is racy under every runtime: the
    # refcount bookkeeping exists under zero-copy too
    Rule("MC-S21", "static-concurrent-map-race", Analysis.STATIC,
         Severity.WARNING,
         "two threads' map constructs on the same buffer, at least one an "
         "exit, may happen in parallel: refcounts and transfers depend on "
         "lock arrival order", family="map-race", breaks=lambda c: True),
    # an unwaited nowait result is nondeterministic everywhere — the
    # copy-back itself is deferred to the missing wait
    Rule("MC-S22", "unsynchronized-nowait-result-read", Analysis.STATIC,
         Severity.ERROR,
         "an application output reads a buffer a nowait target region may "
         "still be writing — no wait on its completion handle orders the "
         "read after the kernel", family="nowait-result",
         breaks=lambda c: True),
    # -- MapCost: static cost prediction / perf lint (repro.check.static.cost)
    # per-iteration map churn only turns into per-iteration ioctls where
    # enters prefault but nothing else (no copies, no fault servicing)
    Rule("MC-W01", "map-churn-in-hot-loop", Analysis.PERF, Severity.WARNING,
         "a map-enter/map-exit pair cycles inside a hot loop: under Eager "
         "Maps every iteration pays a prefault ioctl for the same pages",
         family="perf-map-churn",
         breaks=lambda c: c.is_zero_copy and not c.needs_xnack),
    # a redundant 'to' only ever *could* have copied where maps move data
    Rule("MC-W02", "redundant-map-of-present", Analysis.PERF, Severity.WARNING,
         "a non-always 'to' map of a buffer that is already present never "
         "transfers again: dead copy intent, misleading under Copy",
         family="perf-redundant-map", breaks=lambda c: not c.is_zero_copy),
    # re-faulting fresh allocations costs where XNACK services the faults
    Rule("MC-W03", "first-touch-fault-storm", Analysis.PERF, Severity.WARNING,
         "a loop reallocates a buffer a kernel touches: each fresh "
         "allocation re-faults its pages under XNACK-serviced configs",
         family="perf-fault-storm", breaks=lambda c: c.needs_xnack),
    # double indirection exists only where globals are host pointers
    Rule("MC-W04", "global-indirection-in-loop", Analysis.PERF, Severity.WARNING,
         "a kernel inside a hot loop reads declare-target globals: USM's "
         "pointer-globals double-indirect on every access",
         family="perf-global-indirection",
         breaks=lambda c: c.globals_as_pointer),
    # 'target update' is redundant wherever the mapping already shares
    Rule("MC-W05", "noop-target-update", Analysis.PERF, Severity.WARNING,
         "'target update' moves bytes a zero-copy mapping already shares "
         "with the device: pure overhead outside Copy",
         family="perf-noop-update", breaks=lambda c: c.is_zero_copy),
    # -- MapPlace: static page-placement / affinity lint
    # (repro.check.static.place); "breaks" = pays the remote-link cost
    # remote first-touch faults only cost where XNACK services them
    Rule("MC-A01", "remote-first-touch-storm", Analysis.PLACE, Severity.WARNING,
         "a kernel's first touch faults a large buffer whose pages the "
         "placement puts on a remote socket: every XNACK service crosses "
         "the Infinity Fabric link", family="place-remote-fault",
         breaks=lambda c: c.needs_xnack),
    # map churn moves/installs remote pages where enters do real work:
    # Copy's shadow copies and Eager's prefault ioctls (under the XNACK
    # configs a map-enter is pure bookkeeping)
    Rule("MC-A02", "cross-socket-map-churn", Analysis.PLACE, Severity.WARNING,
         "a map-enter/map-exit pair cycles a remote-placed buffer inside "
         "a hot loop: each enter re-prefaults pages over the link under "
         "prefaulting configs", family="place-map-churn",
         breaks=lambda c: not c.needs_xnack),
    # the remote-access penalty applies where kernels read host memory
    # directly — every zero-copy configuration
    Rule("MC-A03", "unpinned-hot-buffer", Analysis.PLACE, Severity.WARNING,
         "a kernel inside a hot loop reads a buffer with remote-placed "
         "pages under a zero-copy mapping: every iteration pays the "
         "remote-access penalty instead of pinning the buffer home",
         family="place-hot-buffer", breaks=lambda c: c.is_zero_copy),
    # a shadow copy that streams remote bytes over the link exists only
    # where maps materialize shadow copies
    Rule("MC-A04", "link-saturating-shadow-copy", Analysis.PLACE,
         Severity.WARNING,
         "a copying map-enter sources a large remote-placed buffer: the "
         "H2D shadow copy streams its bytes over the inter-socket link",
         family="place-shadow-copy", breaks=lambda c: not c.is_zero_copy),
)

#: rule id -> rule, in stable declaration order
RULES: Dict[str, Rule] = {r.id: r for r in _ALL_RULES}


@dataclass
class Finding:
    """One detected instance of a rule."""

    rule_id: str
    buffer: str                    #: buffer/global name ("" when n/a)
    message: str
    workload: str = ""
    time_us: Optional[float] = None
    tid: Optional[int] = None
    #: configurations under which this defect crashes or corrupts data
    #: (the rule's matrix unless the finding passes its own; only MC-P04's
    #: depends on the finding)
    breaks_under: Tuple[RuntimeConfig, ...] = ()
    #: configurations under which the program happens to work anyway
    passes_under: Tuple[RuntimeConfig, ...] = ()
    #: configurations whose differential run actually crashed/diverged
    confirmed_by: Tuple[RuntimeConfig, ...] = ()
    #: output keys this finding explains (MC-P02/MC-P04 bookkeeping)
    output_keys: Tuple[str, ...] = ()
    #: structured references to further sites exhibiting the same defect
    #: (e.g. MC-P01: every extra kernel touching the same unmapped buffer)
    related: Tuple[str, ...] = ()
    #: ``(path, line)`` of the defect in the workload source, when the
    #: analysis knows it (static findings do; dynamic ones usually don't)
    source: Optional[Tuple[str, int]] = None
    #: matched a baseline fingerprint (``repro check --baseline``):
    #: stays in reports and SARIF but no longer fails the run
    suppressed: bool = False
    #: MapFix attachment: a sandbox-verified remediation for this finding
    #: (``AppliedFix.finding_attachment()``), rendered as SARIF ``fixes[]``
    fix: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if not (self.breaks_under or self.passes_under):
            self.breaks_under, self.passes_under = self.rule.matrix

    @property
    def rule(self) -> Rule:
        return RULES[self.rule_id]

    @property
    def severity(self) -> Severity:
        return self.rule.severity

    def breaks(self, config: RuntimeConfig) -> bool:
        return config in self.breaks_under

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "title": self.rule.title,
            "analysis": self.rule.analysis.value,
            "severity": self.severity.value,
            "buffer": self.buffer,
            "workload": self.workload,
            "message": self.message,
            "time_us": self.time_us,
            "tid": self.tid,
            "breaks_under": [c.value for c in self.breaks_under],
            "passes_under": [c.value for c in self.passes_under],
            "confirmed_by": [c.value for c in self.confirmed_by],
            "related": list(self.related),
            "source": list(self.source) if self.source else None,
            "suppressed": self.suppressed,
            "fix": self.fix,
        }

    def sort_key(self) -> Tuple[str, str, str, float, int, str]:
        """Total order over findings, independent of discovery order.

        Reports assembled from parallel workers (``--jobs``) interleave
        findings nondeterministically; sorting by this key before any
        rendering/JSON emission makes parallel and serial output
        byte-identical.
        """
        return (
            self.rule_id,
            self.workload,
            self.buffer,
            self.time_us if self.time_us is not None else -1.0,
            self.tid if self.tid is not None else -1,
            self.message,
        )


_SEV_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass
class CheckReport:
    """Everything one ``repro check`` invocation of a workload produced."""

    workload: str
    fidelity: str
    findings: List[Finding] = field(default_factory=list)
    #: per-config outcome of the differential runs ("ok", "crash: ...",
    #: "outputs diverge: ...", "skipped")
    config_outcomes: Dict[RuntimeConfig, str] = field(default_factory=dict)
    #: exception message if the instrumented run itself aborted
    aborted: Optional[str] = None
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.aborted is None and not self.active_findings()

    def active_findings(self) -> List[Finding]:
        """Findings not suppressed by a baseline."""
        return [f for f in self.findings if not f.suppressed]

    def sorted_findings(self) -> List[Finding]:
        return sorted(
            self.findings,
            key=lambda f: (_SEV_ORDER[f.severity],) + f.sort_key(),
        )

    def by_rule(self) -> Dict[str, List[Finding]]:
        out: Dict[str, List[Finding]] = {}
        for f in self.findings:
            out.setdefault(f.rule_id, []).append(f)
        return out

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def _config_flags(self, finding: Finding) -> str:
        cells = []
        for cfg in ALL_CONFIGS:
            mark = ("break" if cfg in finding.breaks_under
                    else "ok" if cfg in finding.passes_under else "-")
            if cfg in finding.confirmed_by:
                mark += "!"
            cells.append(f"{cfg.label}={mark}")
        return " ".join(cells)

    def render(self) -> str:
        lines = [
            f"MapCheck report — workload {self.workload!r} "
            f"(fidelity={self.fidelity})",
            "=" * 72,
        ]
        if self.aborted:
            lines.append(f"instrumented run ABORTED: {self.aborted}")
        if not self.findings:
            lines.append("no findings: mapping is clean and portable across "
                         "all 4 runtime configurations")
        else:
            n_err = sum(1 for f in self.findings if f.severity is Severity.ERROR)
            n_sup = sum(1 for f in self.findings if f.suppressed)
            lines.append(
                f"{len(self.findings)} finding(s), {n_err} error(s)"
                + (f", {n_sup} suppressed by baseline" if n_sup else "")
            )
            for f in self.sorted_findings():
                loc = f"t={f.time_us:.1f}us" if f.time_us is not None else ""
                tid = f"tid={f.tid}" if f.tid is not None else ""
                head = " ".join(x for x in (loc, tid) if x)
                lines.append("-" * 72)
                lines.append(
                    f"[{f.severity.value.upper():7s}] {f.rule_id} "
                    f"{f.rule.title}  ({f.rule.analysis.value})"
                    + ("  [suppressed]" if f.suppressed else "")
                )
                if f.buffer:
                    lines.append(f"  buffer : {f.buffer}" + (f"  ({head})" if head else ""))
                elif head:
                    lines.append(f"  at     : {head}")
                lines.append(f"  detail : {f.message}")
                if f.related:
                    lines.append(
                        f"  also   : {len(f.related)} more site(s): "
                        + "; ".join(f.related)
                    )
                if f.source:
                    lines.append(f"  source : {f.source[0]}:{f.source[1]}")
                lines.append(f"  configs: {self._config_flags(f)}")
        if self.config_outcomes:
            lines.append("-" * 72)
            lines.append("differential runs ('!' above = confirmed there):")
            for cfg in ALL_CONFIGS:
                if cfg in self.config_outcomes:
                    lines.append(f"  {cfg.label:<24} {self.config_outcomes[cfg]}")
        if self.stats:
            lines.append("-" * 72)
            lines.append(
                "trace: " + ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items()))
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "fidelity": self.fidelity,
            "ok": self.ok,
            "aborted": self.aborted,
            "findings": [f.to_dict() for f in self.sorted_findings()],
            "config_outcomes": {
                c.value: o for c, o in self.config_outcomes.items()
            },
            "stats": dict(self.stats),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def render_rule_table() -> str:
    """ASCII table of all rules (``repro check --rules``)."""
    lines = [f"{'rule':<8}{'title':<34}{'analysis':<19}{'severity':<9}summary"]
    lines.append("-" * 106)
    for r in RULES.values():
        lines.append(
            f"{r.id:<8}{r.title:<34}{r.analysis.value:<19}"
            f"{r.severity.value:<9}{r.summary}"
        )
    return "\n".join(lines)


def merge_reports(reports: Sequence[CheckReport]) -> str:
    """Summary block for ``repro check all``."""
    lines = [f"{'workload':<22}{'findings':>9}  status"]
    lines.append("-" * 56)
    for rep in reports:
        status = "CLEAN" if rep.ok else ("ABORTED" if rep.aborted else "FINDINGS")
        lines.append(f"{rep.workload:<22}{len(rep.findings):>9}  {status}")
    return "\n".join(lines)
