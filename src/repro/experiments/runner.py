"""Experiment execution: repetitions, medians, CoV — the paper's method.

§V: SPECaccel experiments run 8 times, QMCPack 4 times; "the median value
is used to compute ratios and we report the Coefficient of Variation".
:func:`ratio_experiment` reproduces exactly that protocol: N noisy,
independently-seeded simulations per configuration, medians ratioed
against the Copy baseline, CoV per configuration.

Each (configuration, repetition) cell is an independent simulation, so
``ratio_experiment(..., jobs=N)`` fans the cells out over a process pool
(:mod:`repro.experiments.parallel`); ``jobs=1`` is the strictly serial
path and any ``jobs`` value produces bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Type

from ..core.config import RuntimeConfig
from ..core.params import CostModel
from ..core.system import ApuSystem
from ..omp.runtime import OpenMPRuntime, RunResult
from ..sim import Environment
from ..trace.stats import RepetitionStats
from ..workloads.base import Workload

__all__ = [
    "execute",
    "ratio_experiment",
    "assemble_ratio",
    "RatioResult",
    "WorkloadFactory",
]

#: builds a *fresh* workload instance for every run (simulated state,
#: payload arrays and outputs must not leak between repetitions)
WorkloadFactory = Callable[[], Workload]


def execute(
    workload: Workload,
    config: RuntimeConfig,
    *,
    cost: Optional[CostModel] = None,
    seed: int = 0,
    noise: bool = False,
    kernel_trace: bool = False,
    detailed_trace: bool = False,
    env_cls: Type[Environment] = Environment,
) -> RunResult:
    """Run one workload under one configuration on a fresh system.

    ``env_cls`` picks the scheduler (see :class:`~repro.core.system.ApuSystem`).
    """
    c = cost or CostModel()
    if noise:
        c = c.with_noise()
    system = ApuSystem(
        cost=c, seed=seed, detailed_trace=detailed_trace, env_cls=env_cls
    )
    runtime = OpenMPRuntime(system, config, kernel_trace=kernel_trace)
    return runtime.run_workload(workload)


@dataclass
class RatioResult:
    """Outcome of one ratio experiment (one workload, all configurations)."""

    workload_name: str
    metric: str
    baseline: RuntimeConfig
    times: Dict[RuntimeConfig, RepetitionStats] = field(default_factory=dict)
    #: per-configuration ledger counters summed over repetitions
    #: (deterministic — used by the parallel-equivalence checks)
    ledgers: Dict[RuntimeConfig, Dict[str, float]] = field(default_factory=dict)
    #: total discrete events across every repetition of every config
    sim_events: int = 0

    def ratio(self, config: RuntimeConfig) -> float:
        """median(baseline) / median(config) — >1 means ``config`` wins."""
        return self.times[self.baseline].ratio_of_medians(self.times[config])

    def cov(self, config: RuntimeConfig) -> float:
        return self.times[config].cov

    def ratios(self) -> Dict[RuntimeConfig, float]:
        return {
            cfg: self.ratio(cfg) for cfg in self.times if cfg is not self.baseline
        }

    def summary(self) -> Dict[str, float]:
        out = {}
        for cfg, stats in self.times.items():
            out[f"{cfg.value}_median_us"] = stats.median
            out[f"{cfg.value}_cov"] = stats.cov
            if cfg is not self.baseline:
                out[f"{cfg.value}_ratio"] = self.ratio(cfg)
        return out


def assemble_ratio(
    workload_name: str,
    configs: Sequence[RuntimeConfig],
    reps: int,
    outcomes,
    *,
    baseline: RuntimeConfig = RuntimeConfig.COPY,
    metric: str = "steady_us",
    key=lambda config, rep: (config, rep),
) -> RatioResult:
    """Build a :class:`RatioResult` from completed experiment cells.

    ``outcomes`` maps cell keys to
    :class:`~repro.experiments.parallel.CellOutcome`; ``key`` translates
    ``(config, rep)`` into the caller's cell-key scheme.  Assembly order
    is fixed by ``configs``/``reps``, so results are independent of the
    order the cells actually executed in.
    """
    result = RatioResult(
        workload_name=workload_name, metric=metric, baseline=baseline
    )
    for config in configs:
        outs = [outcomes[key(config, rep)] for rep in range(reps)]
        result.times[config] = RepetitionStats.from_values(
            [o.value for o in outs]
        )
        result.sim_events += sum(o.sim_events for o in outs)
        ledger: Dict[str, float] = {}
        for o in outs:
            for name, v in o.ledger.items():
                ledger[name] = ledger.get(name, 0) + v
        result.ledgers[config] = ledger
    return result


def ratio_experiment(
    factory: WorkloadFactory,
    configs: Sequence[RuntimeConfig],
    *,
    baseline: RuntimeConfig = RuntimeConfig.COPY,
    metric: str = "steady_us",
    reps: int = 4,
    noise: bool = True,
    cost: Optional[CostModel] = None,
    seed0: int = 1000,
    jobs: int = 1,
    progress=None,
    cache=None,
) -> RatioResult:
    """The paper's measurement protocol for one workload.

    ``metric`` selects :attr:`RunResult.steady_us` (QMCPack figures, which
    report steady-state computation ratios) or :attr:`RunResult.elapsed_us`
    (SPECaccel, where start-up effects are part of the story).

    ``jobs`` fans the (config, rep) cells out over a process pool; the
    factory must be picklable for ``jobs > 1`` (use ``functools.partial``
    over a workload class, not a lambda) or the runner falls back to the
    serial path with a warning.

    ``cache`` (a :class:`~repro.experiments.cache.CellCache`) serves
    previously computed cells from disk and persists the fresh ones;
    only cache misses are simulated (and fanned out over ``jobs``).
    """
    from .parallel import ExperimentCell, run_cells

    if baseline not in configs:
        configs = [baseline] + [c for c in configs if c is not baseline]
    first = factory()
    cells = [
        ExperimentCell(
            key=(config, rep),
            factory=factory,
            config=config,
            seed=seed0 + rep,
            metric=metric,
            noise=noise,
            cost=cost,
        )
        for config in configs
        for rep in range(reps)
    ]
    outcomes = run_cells(cells, jobs=jobs, progress=progress, cache=cache)
    return assemble_ratio(
        first.name, configs, reps, outcomes, baseline=baseline, metric=metric
    )
