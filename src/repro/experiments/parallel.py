"""Parallel fan-out of independent experiment cells.

The paper's measurement protocol (§V) is embarrassingly parallel: every
``(workload, configuration, repetition)`` cell of a ratio experiment is
an independent simulation on a fresh :class:`~repro.core.system.ApuSystem`
with its own seed.  Serial execution order therefore carries no
information — results are a pure function of the cell spec — and the
drivers behind the figures and tables can fan cells out across a process
pool without changing a single reported number.

Determinism contract: each cell is seeded explicitly (``seed0 + rep``),
results are keyed by cell and re-assembled in spec order, and the worker
returns plain floats/ints (no shared state crosses the pool boundary).
``jobs=1`` bypasses the pool entirely; ``jobs>1`` falls back to the
serial path — with a warning, never with different results — when the
platform cannot run a process pool or a workload factory does not
pickle (e.g. an ad-hoc lambda or closure).
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from ..core.config import RuntimeConfig
from ..core.params import CostModel

__all__ = [
    "ExperimentCell",
    "CellOutcome",
    "run_cells",
    "resolve_jobs",
]


@dataclass(frozen=True)
class ExperimentCell:
    """One independent simulation: a workload under a configuration with
    a fixed seed.  The full spec is picklable so the cell can execute in
    a worker process."""

    key: Hashable
    factory: Callable[[], object]  #: builds a fresh Workload instance
    config: RuntimeConfig
    seed: int
    metric: str = "steady_us"
    noise: bool = True
    cost: Optional[CostModel] = None
    #: socket count of a multi-socket :class:`~repro.multisocket.card.ApuCard`
    #: cell; ``None`` (the default) runs a plain single-system cell.  Card
    #: cells must select a :class:`~repro.multisocket.card.CardResult`
    #: metric (e.g. ``elapsed_us`` or ``remote_page_fraction``).
    topology: Optional[int] = None
    #: page-placement spec for a card cell (``first-touch`` / ``interleave``
    #: / ``pinned:<home>``); both fields join the cache digest so card
    #: entries never alias plain ones
    placement: Optional[str] = None


@dataclass(frozen=True)
class CellOutcome:
    """What one cell reports back across the process boundary."""

    value: float                       #: the selected RunResult metric
    sim_events: int                    #: engine events the run processed
    ledger: Dict[str, float] = field(default_factory=dict)


def _execute_card_cell(cell: ExperimentCell) -> CellOutcome:
    """Run one multi-socket card cell (module-level so it pickles)."""
    from ..multisocket.card import ApuCard
    from ..multisocket.topology import Topology

    cost = cell.cost or CostModel()
    if cell.noise:
        cost = cost.with_noise()
    card = ApuCard(
        topology=Topology(n_sockets=cell.topology),
        placement=cell.placement or "first-touch",
        cost=cost,
        seed=cell.seed,
    )
    res = card.run_workload(cell.factory(), cell.config)
    ledger: Dict[str, float] = {}
    for lg in res.per_socket_ledgers:
        for name, v in lg.summary().items():
            ledger[name] = ledger.get(name, 0) + v
    return CellOutcome(
        value=float(getattr(res, cell.metric)),
        sim_events=res.sim_events,
        ledger=ledger,
    )


def _execute_cell(cell: ExperimentCell) -> Tuple[Hashable, CellOutcome]:
    """Worker entry point (module-level so it pickles)."""
    from .runner import execute  # deferred: runner imports this module

    if cell.topology is not None:
        return cell.key, _execute_card_cell(cell)
    workload = cell.factory()
    run = execute(
        workload,
        cell.config,
        cost=cell.cost,
        seed=cell.seed,
        noise=cell.noise,
    )
    return cell.key, CellOutcome(
        value=float(getattr(run, cell.metric)),
        sim_events=run.sim_events,
        ledger=run.ledger.summary(),
    )


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means one process per
    CPU, negative is an error."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _run_serial(
    cells: Sequence[ExperimentCell], progress: Optional[Callable[[str], None]]
) -> Dict[Hashable, CellOutcome]:
    out: Dict[Hashable, CellOutcome] = {}
    for cell in cells:
        if progress is not None:
            progress(f"cell {cell.key}")
        key, outcome = _execute_cell(cell)
        out[key] = outcome
    return out


def run_cells(
    cells: Sequence[ExperimentCell],
    *,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    cache=None,
) -> Dict[Hashable, CellOutcome]:
    """Execute every cell and return ``{key: outcome}``.

    Results are bit-identical for any ``jobs`` value: cells carry their
    own seeds and run on fresh systems, so scheduling order is
    irrelevant, and the caller re-assembles by key in its own order.

    ``cache`` (a :class:`~repro.experiments.cache.CellCache`) composes
    with ``jobs``: cached cells are served from disk, only the misses
    fan out over the pool, and every fresh outcome is persisted.  The
    cache is content-addressed, so a hit is by construction the outcome
    the simulation would have produced.
    """
    keys = [c.key for c in cells]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate experiment-cell keys")
    if cache is not None:
        from .cache import cell_digest

        digests = {cell.key: cell_digest(cell) for cell in cells}
        out = {}
        misses = []
        for cell in cells:
            got = cache.get(digests[cell.key])
            if got is not None:
                out[cell.key] = got
            else:
                misses.append(cell)
        if progress is not None and cells:
            progress(f"cache: {len(out)} hits, {len(misses)} misses")
        if misses:
            fresh = run_cells(misses, jobs=jobs, progress=progress)
            for cell in misses:
                cache.put(digests[cell.key], fresh[cell.key])
            out.update(fresh)
        return out
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(cells) <= 1:
        return _run_serial(cells, progress)
    try:
        pickle.dumps(cells)
    except Exception as exc:  # unpicklable factory (lambda/closure)
        warnings.warn(
            f"experiment cells not picklable ({exc}); running serially",
            RuntimeWarning,
            stacklevel=2,
        )
        return _run_serial(cells, progress)
    out: Dict[Hashable, CellOutcome] = {}
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            pending = {pool.submit(_execute_cell, cell): cell for cell in cells}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    cell = pending.pop(fut)
                    key, outcome = fut.result()
                    out[key] = outcome
                    if progress is not None:
                        progress(f"cell {cell.key} done")
    except (OSError, PermissionError) as exc:  # sandboxed / no semaphores
        warnings.warn(
            f"process pool unavailable ({exc}); running serially",
            RuntimeWarning,
            stacklevel=2,
        )
        return _run_serial(cells, progress)
    return out
