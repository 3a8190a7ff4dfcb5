"""Table regeneration: Tables I, II and III of the paper.

* **Table I** — HSA API call statistics (counts + Copy/IZC total-latency
  ratios) for QMCPack NiO S2 with 1 and 8 OpenMP threads, from
  rocprof-style traces.
* **Table II** — Copy / zero-copy total-execution-time ratios for the
  five SPECaccel 2023 C/C++ proxies under each zero-copy configuration.
* **Table III** — MM / MI overhead decomposition for 403.stencil and
  452.ep under Copy, Implicit Z-C (≡ USM), and Eager Maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Sequence, Tuple

from ..core.config import ZERO_COPY_CONFIGS, RuntimeConfig
from ..trace.analysis import HsaCallRow, OverheadRow, hsa_call_comparison, overhead_decomposition
from ..workloads.base import Fidelity
from ..workloads.qmcpack import QmcPackNio
from ..workloads.specaccel import ALL_BENCHMARKS, Ep452, Stencil403
from .runner import execute, ratio_sweep

__all__ = [
    "Table1Result",
    "table1_hsa_calls",
    "Table2Result",
    "table2_specaccel",
    "Table3Result",
    "table3_overheads",
]


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    """HSA call comparison for each thread count."""

    size: int
    fidelity: Fidelity
    #: thread count → comparison rows (Copy vs Implicit Z-C)
    rows: Dict[int, List[HsaCallRow]] = field(default_factory=dict)

    def row(self, threads: int, call: str) -> HsaCallRow:
        for r in self.rows[threads]:
            if r.call == call:
                return r
        raise KeyError(call)


def table1_hsa_calls(
    *,
    threads: Sequence[int] = (1, 8),
    fidelity: Fidelity = Fidelity.FULL,
) -> Table1Result:
    """Regenerate Table I.

    Runs QMCPack S2 under Copy and Implicit Zero-Copy with rocprof-style
    tracing for each thread count.  Full fidelity reproduces paper-scale
    absolute call counts (≈1e5 kernels per thread); lower fidelities
    scale the counts but preserve every count *relationship* the paper
    discusses.  Deterministic (single run per cell — call counts carry no
    measurement noise).
    """
    result = Table1Result(size=2, fidelity=fidelity)
    for t in threads:
        run_copy, run_izc = (
            execute(QmcPackNio(size=result.size, n_threads=t, fidelity=fidelity), config)
            for config in (RuntimeConfig.COPY, RuntimeConfig.IMPLICIT_ZERO_COPY)
        )
        result.rows[t] = hsa_call_comparison(run_copy.hsa_trace, run_izc.hsa_trace)
    return result


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------

#: paper's Table II for shape comparison in reports/tests
PAPER_TABLE2 = {
    "stencil": {
        RuntimeConfig.IMPLICIT_ZERO_COPY: 0.99,
        RuntimeConfig.UNIFIED_SHARED_MEMORY: 0.99,
        RuntimeConfig.EAGER_MAPS: 0.98,
    },
    "lbm": {
        RuntimeConfig.IMPLICIT_ZERO_COPY: 1.05,
        RuntimeConfig.UNIFIED_SHARED_MEMORY: 1.043,
        RuntimeConfig.EAGER_MAPS: 1.025,
    },
    "ep": {
        RuntimeConfig.IMPLICIT_ZERO_COPY: 0.89,
        RuntimeConfig.UNIFIED_SHARED_MEMORY: 0.89,
        RuntimeConfig.EAGER_MAPS: 0.99,
    },
    "spC": {
        RuntimeConfig.IMPLICIT_ZERO_COPY: 7.80,
        RuntimeConfig.UNIFIED_SHARED_MEMORY: 7.61,
        RuntimeConfig.EAGER_MAPS: 8.10,
    },
    "bt": {
        RuntimeConfig.IMPLICIT_ZERO_COPY: 4.88,
        RuntimeConfig.UNIFIED_SHARED_MEMORY: 4.77,
        RuntimeConfig.EAGER_MAPS: 5.10,
    },
}


@dataclass
class Table2Result:
    """Measured SPECaccel ratios per benchmark per configuration."""

    reps: int
    fidelity: Fidelity
    ratios: Dict[str, Dict[RuntimeConfig, float]] = field(default_factory=dict)
    covs: Dict[str, Dict[RuntimeConfig, float]] = field(default_factory=dict)

    def max_cov(self) -> float:
        return max(v for by_cfg in self.covs.values() for v in by_cfg.values())


def table2_specaccel(
    *,
    benchmarks: Sequence[str] = ("stencil", "lbm", "ep", "spC", "bt"),
    reps: int = 8,
    fidelity: Fidelity = Fidelity.FULL,
    noise: bool = True,
    progress=None,
    jobs: int = 1,
    seed0: int = 1000,
    cache=None,
) -> Table2Result:
    """Regenerate Table II (8 repetitions, medians, as in §V).

    Uses total execution time: the SPEC corner cases are start-up and
    allocation effects, which steady-state windows would hide.

    ``jobs > 1`` fans every (benchmark, config, rep) cell out over one
    process pool; results are bit-identical to the serial order.
    ``cache`` serves unchanged cells from disk (content-addressed).
    """
    factories = {}
    for name in benchmarks:
        if progress is not None:
            progress(f"specaccel {name}")
        factories[(name,)] = partial(ALL_BENCHMARKS[name], fidelity=fidelity)
    sweep = ratio_sweep(
        factories, ZERO_COPY_CONFIGS, metric="elapsed_us", reps=reps,
        noise=noise, seed0=seed0, jobs=jobs, cache=cache,
    )
    result = Table2Result(reps=reps, fidelity=fidelity)
    for (name,), ratio in sweep.items():
        result.ratios[name] = ratio.ratios()
        result.covs[name] = {cfg: ratio.cov(cfg) for cfg in ratio.times}
    return result


# ---------------------------------------------------------------------------
# Table III
# ---------------------------------------------------------------------------


@dataclass
class Table3Result:
    """MM/MI decomposition rows per benchmark per configuration."""

    #: benchmark name → config label → OverheadRow
    rows: Dict[str, Dict[str, OverheadRow]] = field(default_factory=dict)

    def magnitude(self, benchmark: str, config_label: str) -> Tuple[str, str]:
        row = self.rows[benchmark][config_label]
        return row.mm_magnitude, row.mi_magnitude


#: Table III's row labels: Implicit Z-C and USM share one row in the paper
TABLE3_CONFIGS = (
    (RuntimeConfig.COPY, "Copy"),
    (RuntimeConfig.IMPLICIT_ZERO_COPY, "Implicit Z-C or USM"),
    (RuntimeConfig.EAGER_MAPS, "Eager Maps"),
)


def table3_overheads(*, fidelity: Fidelity = Fidelity.FULL) -> Table3Result:
    """Regenerate Table III from kernel-trace ledgers (deterministic)."""
    result = Table3Result()
    for name, cls in (("stencil", Stencil403), ("ep", Ep452)):
        result.rows[name] = {}
        for config, label in TABLE3_CONFIGS:
            run = execute(cls(fidelity=fidelity), config)
            result.rows[name][label] = overhead_decomposition(label, run.ledger)
    return result
