"""Turn raw MapFlow interpreter defects into MapCheck findings.

This is the config-parametric half of the analysis: the interpreter
(:mod:`~.interp`) decides *whether* a defect exists on some/every path;
this module decides *under which runtime configurations it bites*, by
evaluating a per-defect-kind break predicate against each
configuration's semantics (XNACK servicing, shadow copies).  The
resulting ``breaks_under``/``passes_under`` matrices are — by
construction and frozen by the registry snapshot test — identical to
the matrices the dynamic analyses attach to the same defect families.
The predicate table covers every static family (MapFlow, MapRace, the
MapCost perf lint, the MapPlace affinity lint).

:func:`analyze_workload` is the one static pipeline: it extracts a
workload once and runs the requested families over that IR.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ...core.config import ALL_CONFIGS, RuntimeConfig, ZERO_COPY_CONFIGS
from ...workloads.base import Fidelity, Workload
from ..findings import CheckReport, Finding
from ..registry import dynamic_counterparts, make_workload
from .extract import ExtractionError, extract_workload
from .interp import Defect, InterpResult, analyze_ir
from .ir import AbstractBuffer, Branch, Loop, Op, Seq, WorkloadIR

if TYPE_CHECKING:  # pragma: no cover
    from .place.model import PlaceSpec

__all__ = [
    "ConfigSemantics",
    "SEMANTICS",
    "analyze_named",
    "analyze_workload",
    "rule_matrix",
    "static_report",
]


@dataclass(frozen=True)
class ConfigSemantics:
    """The three facts about a runtime configuration the static rules
    depend on (the dynamic analyses consult the same ones)."""

    config: RuntimeConfig
    #: XNACK page-fault servicing makes stray device touches of host
    #: memory *work* instead of crash (paper §IV.C)
    xnack: bool
    #: the configuration materializes device shadow copies, so a leaked
    #: present-table entry pins real device memory
    shadow_copies: bool
    #: GPU declare-target globals are pointers into host memory, so
    #: every device access double-indirects (USM only)
    pointer_globals: bool = False


SEMANTICS: Dict[RuntimeConfig, ConfigSemantics] = {
    cfg: ConfigSemantics(
        config=cfg,
        xnack=cfg in (RuntimeConfig.UNIFIED_SHARED_MEMORY,
                      RuntimeConfig.IMPLICIT_ZERO_COPY),
        shadow_copies=cfg not in ZERO_COPY_CONFIGS,
        pointer_globals=cfg.globals_as_pointer,
    )
    for cfg in ALL_CONFIGS
}

#: static rule id -> "breaks (or, for the perf and affinity lints, pays
#: its cost) under this configuration" predicate over the configuration's
#: semantics; every static rule's matrix is derived from it by
#: :func:`rule_matrix`, never hand-copied
_RULE_PREDICATES: Dict[str, Callable[[ConfigSemantics], bool]] = {
    # -- MapFlow -----------------------------------------------------------
    # an underflowing exit corrupts the present table in every runtime —
    # refcount bookkeeping exists under zero-copy too
    "MC-S10": lambda s: True,
    # destroying a mapping out from under an in-flight region is a
    # use-after-free of runtime metadata regardless of configuration
    "MC-S11": lambda s: True,
    # a leaked entry only pins memory where a shadow copy exists
    "MC-S12": lambda s: s.shadow_copies,
    # an uncovered raw-pointer touch is serviced by XNACK or nothing
    "MC-P10": lambda s: not s.xnack,
    # -- MapRace -----------------------------------------------------------
    # the kernel only sees the racing host write where no shadow copy
    # isolates it (every zero-copy configuration)
    "MC-S20": lambda s: not s.shadow_copies,
    # present-table mutation order is racy under every runtime: the
    # refcount bookkeeping exists under zero-copy too
    "MC-S21": lambda s: True,
    # an unwaited nowait result is nondeterministic everywhere — the
    # copy-back itself is deferred to the missing wait
    "MC-S22": lambda s: True,
    # -- MapCost perf lint -------------------------------------------------
    # per-iteration map churn only turns into per-iteration ioctls where
    # enters prefault but nothing else (no copies, no fault servicing)
    "MC-W01": lambda s: not s.xnack and not s.shadow_copies,
    # a redundant 'to' only ever *could* have copied where maps move data
    "MC-W02": lambda s: s.shadow_copies,
    # re-faulting fresh allocations costs where XNACK services the faults
    "MC-W03": lambda s: s.xnack,
    # double indirection exists only where globals are host pointers
    "MC-W04": lambda s: s.pointer_globals,
    # 'target update' is redundant wherever the mapping already shares
    "MC-W05": lambda s: not s.shadow_copies,
    # -- MapPlace affinity lint (pays the remote-link cost) ----------------
    # remote first-touch faults only cost where XNACK services them
    "MC-A01": lambda s: s.xnack,
    # map churn moves/installs remote pages where enters do real work:
    # Copy's shadow copies and Eager's prefault ioctls (under the XNACK
    # configs a map-enter is pure bookkeeping)
    "MC-A02": lambda s: not s.xnack,
    # the remote-access penalty applies where kernels read host memory
    # directly — every zero-copy configuration
    "MC-A03": lambda s: not s.shadow_copies,
    # a shadow copy that streams remote bytes over the link exists only
    # where maps materialize shadow copies
    "MC-A04": lambda s: s.shadow_copies,
}

#: interpreter defect kind -> the MapFlow rule it reports as
_KIND_RULES: Dict[str, str] = {
    "underflow": "MC-S10",
    "inflight": "MC-S11",
    "leak": "MC-S12",
    "uncovered": "MC-P10",
}


def rule_matrix(
    rule_id: str,
) -> Tuple[Tuple[RuntimeConfig, ...], Tuple[RuntimeConfig, ...]]:
    """``(breaks_under, passes_under)`` for a static rule, derived by
    evaluating its predicate per configuration."""
    breaks = _RULE_PREDICATES[rule_id]
    breaks_under = tuple(c for c in ALL_CONFIGS if breaks(SEMANTICS[c]))
    passes_under = tuple(c for c in ALL_CONFIGS if not breaks(SEMANTICS[c]))
    return breaks_under, passes_under


# ---------------------------------------------------------------------------
# finding construction
# ---------------------------------------------------------------------------

_REPRO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))  # .../src/repro
_SRC_ROOT = os.path.dirname(_REPRO_ROOT)  # .../src


def _relative_source(path: str) -> str:
    if path and os.path.isabs(path):
        try:
            rel = os.path.relpath(path, _SRC_ROOT)
        except ValueError:  # pragma: no cover - windows cross-drive
            return path
        if not rel.startswith(".."):
            return rel
    return path


def _xref(rule_id: str) -> str:
    dyn = dynamic_counterparts(rule_id)
    if not dyn:  # pragma: no cover - every static rule has counterparts
        return ""
    return f" [dynamic counterpart{'s' if len(dyn) > 1 else ''}: {', '.join(dyn)}]"


def _message(defect: Defect) -> str:
    name = defect.site.name
    if defect.kind == "underflow":
        core = (
            f"a path exists on which {defect.context or 'a map-exit'} of "
            f"{name!r} runs while its present-table entry is definitely "
            "absent (refcount 0): double unmap or exit without a matching "
            "enter"
        )
    elif defect.kind == "inflight":
        core = (
            f"a map-exit can destroy the mapping of {name!r} while "
            f"{defect.context or 'a nowait target region'}"
        )
    elif defect.kind == "leak":
        core = (
            f"{name!r} is {defect.context or 'still mapped at thread end'}"
        )
    else:  # uncovered
        kernel = f" by kernel {defect.context!r}" if defect.context else ""
        core = (
            f"raw-pointer touch of {name!r}{kernel} is covered by no live "
            "map entry or target map clause on any path to the dispatch"
        )
    return core + _xref(_KIND_RULES[defect.kind])


def _findings_from(result: InterpResult, workload_name: str) -> List[Finding]:
    # one finding per (rule, site); further occurrences -> `related`
    grouped: Dict[Tuple[str, AbstractBuffer], List[Defect]] = {}
    for defect in result.defects:
        grouped.setdefault((_KIND_RULES[defect.kind], defect.site),
                           []).append(defect)
    source = _relative_source(result.ir.source_file)
    findings: List[Finding] = []
    for (rule_id, site), defects in sorted(
        grouped.items(), key=lambda kv: (kv[0][0], kv[0][1].site)
    ):
        defects = sorted(defects, key=lambda d: (d.lineno, d.op_id))
        primary = defects[0]
        breaks_under, passes_under = rule_matrix(rule_id)
        related = tuple(
            f"line {d.lineno} (tid {d.tid})" for d in defects[1:]
        )
        findings.append(Finding(
            rule_id=rule_id,
            buffer=site.name,
            workload=workload_name,
            message=_message(primary),
            tid=primary.tid,
            breaks_under=breaks_under,
            passes_under=passes_under,
            related=related,
            source=(source, primary.lineno or site.lineno)
            if source else None,
        ))
    return findings


def _count_ops(ir: WorkloadIR) -> int:
    def walk(seq: Seq) -> int:
        n = 0
        for item in seq.items:
            if isinstance(item, Op):
                n += 1
            elif isinstance(item, Branch):
                n += walk(item.then) + walk(item.orelse)
            elif isinstance(item, Loop):
                n += walk(item.body)
        return n

    return sum(walk(t.body) for t in ir.threads)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def analyze_workload(
    workload: Workload,
    name: str = "",
    *,
    flow: bool = True,
    perf: bool = False,
    place: Optional[PlaceSpec] = None,
) -> Tuple[CheckReport, Optional[WorkloadIR]]:
    """Extract one workload instance once and run the requested static
    families over that IR: MapFlow + MapRace (``flow``), the MapCost perf
    lint (``perf``) and the MapPlace affinity lint at one analysis point
    (``place``).  Returns the report and the IR, which is ``None`` when
    extraction failed (the report's ``aborted`` then says why).

    Pure static path: no :class:`~repro.core.system.ApuSystem` is
    instantiated and no simulation event is emitted — the workload
    object is only used as a constant environment for partial
    evaluation of its thread-body source.  The analyses only read the
    IR, so callers may reuse it (MapFix ranks fixes on it).
    """
    wname = name or getattr(workload, "name", type(workload).__name__)
    fidelity = getattr(workload, "fidelity", None)
    report = CheckReport(
        workload=wname,
        fidelity=fidelity.value if fidelity is not None else "?",
    )
    try:
        ir = extract_workload(workload, name=wname)
    except ExtractionError as exc:
        report.aborted = f"static extraction failed: {exc}"
        return report, None
    # local imports: the family rule modules import this one
    if flow:
        from .race.rules import race_findings

        result = analyze_ir(ir)
        report.findings = _findings_from(result, wname)
        # MapRace rides the same extraction: MHP race findings
        # (MC-S20/21/22) join the dataflow findings so `check --static`,
        # the differentials, SARIF and CI all see one static report
        race = race_findings(ir)
        report.findings.extend(race)
        report.stats = {
            "static_threads": len(ir.threads),
            "static_ops": _count_ops(ir),
            "static_states": result.states_explored,
            "static_imprecision": len(ir.imprecision),
            "static_race_findings": len(race),
        }
    if perf:
        from .cost.rules import perf_findings

        report.findings.extend(perf_findings(ir))
        report.stats["perf_threads"] = len(ir.threads)
    if place is not None:
        from .place.rules import place_findings

        report.findings.extend(place_findings(ir, place))
        report.stats["place_threads"] = len(ir.threads)
        report.stats["place_sockets"] = place.n_sockets
    return report, ir


def static_report(workload: Workload, name: str = "") -> CheckReport:
    """MapFlow + MapRace over one workload instance (pure static)."""
    return analyze_workload(workload, name)[0]


def analyze_named(
    name: str, fidelity: Fidelity = Fidelity.TEST
) -> CheckReport:
    """Static-analyze one bundled workload by registry name."""
    return static_report(make_workload(name, fidelity), name)
