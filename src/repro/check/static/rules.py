"""Turn raw MapFlow interpreter defects into MapCheck findings.

The interpreter (:mod:`~.interp`) decides *whether* a defect exists on
some/every path; this module names the rule each defect kind reports as
and folds repeated hits into one finding per (rule, site).  *Under
which runtime configurations* a finding bites is the rule's own
``breaks`` predicate (:mod:`repro.check.findings`), the same catalog
the dynamic analyses' findings take their matrices from.

:func:`analyze_workload` is the one static pipeline: it extracts a
workload once and runs the requested families over that IR.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ...workloads.base import Fidelity, Workload
from ..findings import CheckReport, Finding
from ..registry import dynamic_counterparts, make_workload
from .extract import ExtractionError, extract_workload
from .interp import Defect, analyze_ir
from .ir import AbstractBuffer, WorkloadIR

if TYPE_CHECKING:  # pragma: no cover
    from .place.model import PlaceSpec

__all__ = [
    "RawFinding",
    "analyze_named",
    "analyze_workload",
    "fold_findings",
    "static_report",
]


#: interpreter defect kind -> the MapFlow rule it reports as
_KIND_RULES: Dict[str, str] = {
    "underflow": "MC-S10",
    "inflight": "MC-S11",
    "leak": "MC-S12",
    "uncovered": "MC-P10",
}


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
    if not dyn:
        return ""  # MC-S22 has no dynamic twin: the race is pre-runtime
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


@dataclass
class RawFinding:
    """One MapFlow or MapRace hit: a rule fired at one op on one site."""

    rule_id: str
    site: AbstractBuffer
    message: str
    lineno: int
    tid: int
    op_id: int


def fold_findings(raw: Iterable[RawFinding], ir: WorkloadIR) -> List[Finding]:
    """One finding per (rule, site), ordered by rule then site key; the
    earliest hit by (line, op id) speaks for the group and the later
    ones become ``related``."""
    grouped: Dict[Tuple[str, AbstractBuffer], List[RawFinding]] = {}
    for r in raw:
        grouped.setdefault((r.rule_id, r.site), []).append(r)
    source = _relative_source(ir.source_file)
    findings: List[Finding] = []
    for (rule_id, site), items in sorted(
        grouped.items(), key=lambda kv: (kv[0][0], kv[0][1].site)
    ):
        items = sorted(items, key=lambda r: (r.lineno, r.op_id))
        primary = items[0]
        findings.append(Finding(
            rule_id=rule_id,
            buffer=site.name,
            workload=ir.name,
            message=primary.message,
            tid=primary.tid,
            related=tuple(
                f"line {r.lineno} (tid {r.tid})" for r in items[1:]
            ),
            source=(source, primary.lineno or site.lineno)
            if source else None,
        ))
    return findings


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

    Pure static path: no simulation :class:`~repro.sim.Environment` is
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
        report.findings = fold_findings(
            (RawFinding(_KIND_RULES[d.kind], d.site, _message(d), d.lineno,
                        d.tid, d.op_id) for d in result.defects), ir)
        # MapRace rides the same extraction: MHP race findings
        # (MC-S20/21/22) join the dataflow findings so `check --static`,
        # the differentials, SARIF and CI all see one static report
        race = race_findings(ir)
        report.findings.extend(race)
        report.stats = {
            "static_threads": len(ir.threads),
            "static_ops": sum(1 for _ in ir.ops()),
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


def analyze_named(name: str) -> CheckReport:
    """Static-analyze one bundled workload by registry name (TEST fidelity)."""
    return static_report(make_workload(name, Fidelity.TEST), name)
