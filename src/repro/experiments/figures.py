"""Figure regeneration: Fig. 3 and Fig. 4 of the paper.

* **Fig. 3** — one panel per NiO problem size: the Copy/zero-copy
  execution-time ratio as a function of OpenMP host-thread count
  (1, 2, 4, 8), three series (USM, Implicit Z-C, Eager Maps).
* **Fig. 4** — the same data at 8 threads, plotted against problem size.

Both figures come from one data grid, so :func:`collect_qmcpack_grid`
computes it once and the two figure builders slice it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Sequence, Tuple

from ..core.config import ZERO_COPY_CONFIGS, RuntimeConfig
from ..workloads.base import Fidelity
from ..workloads.qmcpack import QmcPackNio
from .runner import RatioResult, ratio_sweep

__all__ = ["QmcPackGrid", "collect_qmcpack_grid", "fig3_series", "fig4_series"]

#: the paper's figure axes
FIG_SIZES = (2, 4, 8, 16, 24, 32, 48, 64, 128)
FIG_THREADS = (1, 2, 4, 8)


@dataclass
class QmcPackGrid:
    """Ratio grid over (size, threads, config) plus CoV bookkeeping."""

    fidelity: Fidelity
    reps: int
    cells: Dict[Tuple[int, int], RatioResult] = field(default_factory=dict)

    def ratio(self, size: int, threads: int, config: RuntimeConfig) -> float:
        return self.cells[(size, threads)].ratio(config)

    def cov(self, size: int, threads: int, config: RuntimeConfig) -> float:
        return self.cells[(size, threads)].cov(config)

    def max_cov(self, config: RuntimeConfig) -> float:
        return max(r.cov(config) for r in self.cells.values())

    def sizes(self) -> List[int]:
        return sorted({s for s, _ in self.cells})

    def threads(self) -> List[int]:
        return sorted({t for _, t in self.cells})


def collect_qmcpack_grid(
    sizes: Sequence[int] = FIG_SIZES,
    threads: Sequence[int] = FIG_THREADS,
    *,
    fidelity: Fidelity = Fidelity.BENCH,
    reps: int = 4,
    noise: bool = True,
    progress=None,
    jobs: int = 1,
    seed0: int = 1000,
    cache=None,
) -> QmcPackGrid:
    """Run the full QMCPack measurement grid (the data behind Figs. 3+4).

    QMCPack runs 4 repetitions per cell in the paper (§V); ratios use
    steady-state time, matching §V.A.1's note that the figures exclude
    initialization.

    Every ``(size, threads, config, rep)`` cell is independent, so
    ``jobs > 1`` fans the *whole grid* out over a process pool at once
    (not one ratio experiment at a time); results are bit-identical to
    the serial order for any ``jobs``.  ``cache`` (a
    :class:`~repro.experiments.cache.CellCache`) serves unchanged cells
    from disk — a warm rerun regenerates both figures with zero
    simulations.
    """
    factories = {}
    for size in sizes:
        for t in threads:
            if progress is not None:
                progress(f"qmcpack S{size} x {t} threads")
            factories[(size, t)] = partial(
                QmcPackNio, size=size, n_threads=t, fidelity=fidelity
            )
    return QmcPackGrid(fidelity=fidelity, reps=reps, cells=ratio_sweep(
        factories, ZERO_COPY_CONFIGS, metric="steady_us", reps=reps,
        noise=noise, seed0=seed0, jobs=jobs, cache=cache,
    ))


def fig3_series(
    grid: QmcPackGrid, size: int
) -> Dict[RuntimeConfig, List[Tuple[int, float]]]:
    """One Fig. 3 panel: ratio vs thread count for a fixed size."""
    out: Dict[RuntimeConfig, List[Tuple[int, float]]] = {}
    for config in ZERO_COPY_CONFIGS:
        out[config] = [
            (t, grid.ratio(size, t, config)) for t in grid.threads()
        ]
    return out


def fig4_series(
    grid: QmcPackGrid, threads: int = 8
) -> Dict[RuntimeConfig, List[Tuple[int, float]]]:
    """Fig. 4: ratio vs problem size at a fixed thread count."""
    out: Dict[RuntimeConfig, List[Tuple[int, float]]] = {}
    for config in ZERO_COPY_CONFIGS:
        out[config] = [
            (s, grid.ratio(s, threads, config)) for s in grid.sizes()
        ]
    return out
