"""Experiment execution: repetitions, medians, CoV — the paper's method.

§V: SPECaccel experiments run 8 times, QMCPack 4 times; "the median value
is used to compute ratios and we report the Coefficient of Variation".
:func:`ratio_sweep` reproduces exactly that protocol for every workload
of a figure or table at once: N noisy, independently-seeded simulations
per configuration, medians ratioed against the Copy baseline, CoV per
configuration.  :func:`ratio_experiment` is the one-workload case.

Each (workload, configuration, repetition) cell is an independent
simulation, so the sweep hands the whole batch to
:func:`~repro.experiments.parallel.run_cells`, which fans it out over
the package's one process pool; ``jobs=1`` is the strictly serial path
and any ``jobs`` value produces bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple, Type

from ..core.config import RuntimeConfig
from ..core.params import CostModel
from ..core.system import ApuSystem
from ..omp.runtime import OpenMPRuntime, RunResult
from ..sim import Environment
from ..trace.stats import RepetitionStats
from ..workloads.base import Workload
from .parallel import ExperimentCell, run_cells

__all__ = [
    "execute",
    "ratio_experiment",
    "ratio_sweep",
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
    """One workload's repetitions under every configuration, ratioed
    against the Copy baseline."""

    times: Dict[RuntimeConfig, RepetitionStats] = field(default_factory=dict)
    #: per-configuration ledger counters summed over repetitions
    #: (deterministic — used by the parallel-equivalence checks)
    ledgers: Dict[RuntimeConfig, Dict[str, float]] = field(default_factory=dict)
    #: total discrete events across every repetition of every config
    sim_events: int = 0

    def ratio(self, config: RuntimeConfig) -> float:
        """median(Copy) / median(config) — >1 means ``config`` wins."""
        return self.times[RuntimeConfig.COPY].ratio_of_medians(self.times[config])

    def cov(self, config: RuntimeConfig) -> float:
        return self.times[config].cov

    def ratios(self) -> Dict[RuntimeConfig, float]:
        return {
            cfg: self.ratio(cfg) for cfg in self.times if cfg is not RuntimeConfig.COPY
        }

    def summary(self) -> Dict[str, float]:
        out = {}
        for cfg, stats in self.times.items():
            out[f"{cfg.value}_median_us"] = stats.median
            out[f"{cfg.value}_cov"] = stats.cov
            if cfg is not RuntimeConfig.COPY:
                out[f"{cfg.value}_ratio"] = self.ratio(cfg)
        return out


def ratio_sweep(
    factories: Dict[Tuple, WorkloadFactory],
    configs: Sequence[RuntimeConfig],
    *,
    metric: str,
    reps: int,
    noise: bool,
    seed0: int,
    jobs: int,
    cache,
) -> Dict[Tuple, RatioResult]:
    """The paper's measurement protocol for every workload of a sweep.

    ``factories`` maps a key prefix to a workload factory; every
    ``(config, rep)`` cell of it is keyed ``prefix + (config, rep)`` and
    seeded ``seed0 + rep``, Copy is prepended to ``configs`` when
    missing, and all cells of all workloads go to
    :func:`~repro.experiments.parallel.run_cells` as one batch (over
    ``jobs`` workers, served from ``cache`` where it can be).  Returns
    ``{prefix: RatioResult}``, assembled in ``configs``/``reps`` order,
    so results do not depend on the order the cells ran in.

    ``metric`` selects :attr:`RunResult.steady_us` (QMCPack figures, which
    report steady-state computation ratios) or :attr:`RunResult.elapsed_us`
    (SPECaccel, where start-up effects are part of the story).
    """
    if RuntimeConfig.COPY not in configs:
        configs = [RuntimeConfig.COPY, *configs]
    cells = [
        ExperimentCell(
            key=prefix + (config, rep),
            factory=factory,
            config=config,
            seed=seed0 + rep,
            metric=metric,
            noise=noise,
        )
        for prefix, factory in factories.items()
        for config in configs
        for rep in range(reps)
    ]
    outcomes = run_cells(cells, jobs=jobs, cache=cache)
    results = {}
    for prefix in factories:
        result = results[prefix] = RatioResult()
        for config in configs:
            outs = [outcomes[prefix + (config, rep)] for rep in range(reps)]
            result.times[config] = RepetitionStats.from_values(
                [o.value for o in outs]
            )
            result.sim_events += sum(o.sim_events for o in outs)
            ledger: Dict[str, float] = {}
            for o in outs:
                for name, v in o.ledger.items():
                    ledger[name] = ledger.get(name, 0) + v
            result.ledgers[config] = ledger
    return results


def ratio_experiment(
    factory: WorkloadFactory,
    configs: Sequence[RuntimeConfig],
    *,
    metric: str = "steady_us",
    reps: int = 4,
    noise: bool = True,
    jobs: int = 1,
    cache=None,
) -> RatioResult:
    """:func:`ratio_sweep` for one workload, seeded from 1000.

    The factory must be picklable for ``jobs > 1`` (use
    ``functools.partial`` over a workload class, not a lambda) or the
    cells run serially with a warning.
    """
    return ratio_sweep(
        {(): factory}, configs, metric=metric, reps=reps, noise=noise,
        seed0=1000, jobs=jobs, cache=cache,
    )[()]
