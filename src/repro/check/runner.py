"""MapCheck driver: instrumented recording run + differential confirmation.

``check_workload`` does three things:

1. runs the workload once under Implicit Zero-Copy with a
   :class:`~repro.check.events.CheckRecorder` attached (IZC is the most
   permissive configuration — XNACK papers over missing maps — so the
   recording run completes even for buggy programs, which is exactly
   what lets the lint *observe* the latent defect instead of crashing
   on it);
2. replays the recorded event streams through the three analyses;
3. optionally re-runs the workload under the other three configurations
   and compares crashes / functional outputs — a finding whose
   ``breaks_under`` set contains a configuration that actually crashed
   or diverged is marked *confirmed*, turning the paper's §IV.C
   portability argument into an executed experiment rather than a
   static claim.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.config import ALL_CONFIGS, RuntimeConfig
from ..core.params import CostModel
from ..core.system import ApuSystem
from ..driver.kfd import GpuMemoryError
from ..omp.mapping import MappingError
from ..omp.runtime import OpenMPRuntime
from ..workloads.base import Fidelity, Workload
from .events import CheckRecorder, instrument
from .findings import CheckReport, Finding
from .lint import run_lint
from .races import run_races
from .registry import WORKLOADS, make_workload
from .sanitizer import run_sanitizer

__all__ = ["check_workload", "check_named", "check_all", "RecordedRun"]

#: exception types that count as "the program is broken under this
#: configuration" rather than a harness bug
_PROGRAM_ERRORS = (MappingError, GpuMemoryError, RuntimeError)

#: the recording configuration: most permissive, never crashes on
#: portability bugs (XNACK services every stray touch)
RECORD_CONFIG = RuntimeConfig.IMPLICIT_ZERO_COPY


@dataclass
class RecordedRun:
    """The instrumented run's artifacts."""

    recorder: CheckRecorder
    runtime: OpenMPRuntime
    outputs: Dict[str, object]
    aborted: Optional[BaseException]


def _run_instrumented(
    workload: Workload, *, cost: Optional[CostModel], seed: int
) -> RecordedRun:
    system = ApuSystem(cost=cost or CostModel(), seed=seed)
    runtime = OpenMPRuntime(system, RECORD_CONFIG)
    rec = instrument(runtime)
    aborted = None
    try:
        runtime.run_workload(workload)
    except _PROGRAM_ERRORS as exc:
        # only the exception's type and message are read; its traceback's
        # frames would keep the recorder alive in a reference cycle
        aborted = exc.with_traceback(None)
    finally:
        # unhooked, a dropped RecordedRun frees its event streams by
        # reference counting instead of at the next gen-2 collection
        runtime.recorder = runtime.table.observer = runtime.table.lock_probe = None
    return RecordedRun(
        recorder=rec, runtime=runtime,
        outputs=dict(workload.outputs.values), aborted=aborted,
    )


def _values_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    return a == b


def _is_telemetry(key: str) -> bool:
    """Performance telemetry outputs (durations, fault counts) are
    *supposed* to differ between configurations — that difference is the
    paper's result, not a bug.  The workload convention is ``*_us`` for
    durations and ``*_faults`` for XNACK counters."""
    return key.endswith("_us") or key.endswith("_faults")


def _differential(
    factory: Callable[[], Workload],
    reference: Dict[str, object],
    *,
    cost: Optional[CostModel],
    seed: int,
) -> Dict[RuntimeConfig, str]:
    """Re-run under the other configurations; summarize each outcome."""
    from ..experiments.runner import execute

    outcomes: Dict[RuntimeConfig, str] = {RECORD_CONFIG: "ok (recording run)"}
    for config in ALL_CONFIGS:
        if config is RECORD_CONFIG:
            continue
        workload = factory()
        try:
            execute(workload, config, cost=cost, seed=seed)
        except _PROGRAM_ERRORS as exc:
            outcomes[config] = f"crash: {type(exc).__name__}: {exc}"
            # the dead run keeps its exception; the traceback's frames
            # would chain back to the caller's recording
            exc.with_traceback(None)
            continue
        diverged = sorted(
            key for key, ref in reference.items()
            if not _is_telemetry(key)
            and (key not in workload.outputs.values
                 or not _values_equal(workload.outputs.values[key], ref))
        )
        outcomes[config] = (
            "outputs diverge: " + ", ".join(diverged) if diverged else "ok"
        )
    return outcomes


def _confirm(findings: List[Finding],
             outcomes: Dict[RuntimeConfig, str]) -> None:
    for f in findings:
        f.confirmed_by = tuple(
            c for c in f.breaks_under
            if c in outcomes and outcomes[c] != "ok"
            and not outcomes[c].startswith("ok ")
        )


def _divergence_findings(
    findings: List[Finding],
    outcomes: Dict[RuntimeConfig, str],
    workload: str,
) -> List[Finding]:
    """MC-P04 for output divergences no other finding already explains."""
    explained = set()
    for f in findings:
        explained.update(f.output_keys)
    by_key: Dict[str, List[RuntimeConfig]] = {}
    for config, outcome in outcomes.items():
        if outcome.startswith("outputs diverge: "):
            for key in outcome[len("outputs diverge: "):].split(", "):
                if key not in explained:
                    by_key.setdefault(key, []).append(config)
    extra = []
    for key, configs in sorted(by_key.items()):
        extra.append(Finding(
            rule_id="MC-P04",
            buffer=key,
            workload=workload,
            message=(
                f"output {key!r} differs from the zero-copy reference under "
                f"{', '.join(c.label for c in configs)} — the program's "
                "result depends on the runtime configuration"
            ),
            breaks_under=tuple(configs),
            passes_under=(RECORD_CONFIG,),
            confirmed_by=tuple(configs),
            output_keys=(key,),
        ))
    return extra


def check_workload(
    factory: Callable[[], Workload],
    name: Optional[str] = None,
    *,
    cross_check: bool = True,
    cost: Optional[CostModel] = None,
    seed: int = 0,
) -> CheckReport:
    """Run MapCheck over one workload factory (fresh instance per run)."""
    workload = factory()
    wname = name or workload.name
    recorded = _run_instrumented(workload, cost=cost, seed=seed)
    rec = recorded.recorder
    findings = run_lint(rec, wname, outputs=recorded.outputs)
    findings += run_sanitizer(
        rec, wname,
        # a crashed run leaves entries behind by construction; only judge
        # teardown hygiene when all threads actually finished
        table=None if recorded.aborted else recorded.runtime.table,
        aborted=recorded.aborted,
    )
    findings += run_races(rec, wname)
    report = CheckReport(
        workload=wname,
        fidelity=workload.fidelity.value,
        findings=findings,
        aborted=None if recorded.aborted is None else
        f"{type(recorded.aborted).__name__}: {recorded.aborted}",
        stats=rec.stats(),
    )
    if cross_check and recorded.aborted is None:
        outcomes = _differential(factory, recorded.outputs, cost=cost, seed=seed)
        _confirm(findings, outcomes)
        report.findings.extend(
            _divergence_findings(findings, outcomes, wname)
        )
        report.config_outcomes = outcomes
    if any(f.source is None for f in report.findings):
        # best-effort: locate dynamic findings via the static extractor
        # (MapFix and SARIF viewers want every finding to carry a line);
        # workloads outside static scope simply keep source=None
        with contextlib.suppress(Exception):
            from .locate import backfill_sources
            from .static.extract import extract_workload

            backfill_sources(report.findings, extract_workload(factory(), wname))
    return report


def check_named(
    name: str,
    fidelity: Fidelity = Fidelity.TEST,
    *,
    cross_check: bool = True,
    cost: Optional[CostModel] = None,
    seed: int = 0,
    static: bool = False,
    dynamic: bool = True,
    perf: bool = False,
) -> CheckReport:
    """Run MapCheck over one bundled workload by registry name.

    ``static=True`` additionally runs the MapFlow static dataflow analysis
    (with MapRace) and merges its findings; ``perf=True`` additionally
    runs the MapCost perf lint (also pure static) — both from one
    extraction.  ``dynamic=False`` skips the instrumented and
    differential runs entirely (no simulation); MapFlow then runs unless
    only ``perf`` was asked for.
    """
    from .static.rules import analyze_workload

    def _static(flow: bool) -> CheckReport:
        return analyze_workload(make_workload(name, fidelity), name,
                                flow=flow, perf=perf)[0]

    if not dynamic:
        return _static(static or not perf)
    report = check_workload(
        lambda: make_workload(name, fidelity), name,
        cross_check=cross_check, cost=cost, seed=seed,
    )
    if static or perf:
        extra = _static(static)
        report.findings.extend(extra.findings)
        report.stats.update(extra.stats)
        if extra.aborted and report.aborted is None:
            report.aborted = extra.aborted
    return report


def _check_one(spec: Tuple[str, Fidelity, bool, bool, bool, bool]) -> CheckReport:
    """Worker entry point (module-level so it pickles)."""
    name, fidelity, cross_check, static, dynamic, perf = spec
    return check_named(
        name, fidelity, cross_check=cross_check,
        static=static, dynamic=dynamic, perf=perf,
    )


def check_all(
    fidelity: Fidelity = Fidelity.TEST,
    *,
    cross_check: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    static: bool = False,
    dynamic: bool = True,
    perf: bool = False,
) -> List[CheckReport]:
    """Run MapCheck over every bundled workload.

    Workloads are independent (fresh instance, fresh simulated system,
    fixed seed each), so ``jobs > 1`` (``0`` = one per CPU) fans them out
    over the process pool the experiment drivers use
    (:func:`~repro.experiments.parallel.fan_out`); reports come back in
    sorted-name order, and every finding list is itself emitted in
    sorted order — parallel and serial output are byte-identical.
    """
    from ..experiments.parallel import fan_out

    specs = [(name, fidelity, cross_check, static, dynamic, perf)
             for name in sorted(WORKLOADS)]
    done = None if progress is None else lambda spec: progress(f"check {spec[0]} done")
    return fan_out(_check_one, specs, jobs=jobs, progress=done)
