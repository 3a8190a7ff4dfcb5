"""One process-pool fan-out for every batch of independent work.

The paper's measurement protocol (§V) is embarrassingly parallel: every
``(workload, configuration, repetition)`` cell of a ratio experiment is
an independent simulation on a fresh :class:`~repro.core.system.ApuSystem`
with its own seed, and every workload of ``check all`` is an independent
check.  Serial execution order therefore carries no information, and
:func:`fan_out` — the one process pool in the package — runs both kinds
of batch without changing a single reported number.

Determinism contract: each cell is seeded explicitly (``seed0 + rep``),
results come back in item order whatever order the workers finish in,
and a worker returns plain values (no shared state crosses the pool
boundary).  ``jobs=1`` bypasses the pool entirely: the pool machinery
(``concurrent.futures.process`` and ``multiprocessing``) is imported on
first use, so a serial run never loads it.  ``jobs>1`` falls back to
the serial path — with a warning, never with different results — when
the platform cannot run a process pool (no ``_multiprocessing``, no
semaphores) or the batch does not pickle (e.g. an ad-hoc lambda or
closure as a workload factory).  A task's own exception is never
mistaken for either: it propagates once.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar

from ..core.config import RuntimeConfig

__all__ = [
    "ExperimentCell",
    "CellOutcome",
    "fan_out",
    "run_cells",
    "resolve_jobs",
]

T = TypeVar("T")
R = TypeVar("R")


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


@dataclass(frozen=True)
class CellOutcome:
    """What one cell reports back across the process boundary."""

    value: float                       #: the selected RunResult metric
    sim_events: int                    #: engine events the run processed
    ledger: Dict[str, float] = field(default_factory=dict)


def _execute_cell(cell: ExperimentCell) -> Tuple[Hashable, CellOutcome]:
    """Worker entry point (module-level so it pickles)."""
    from .runner import execute  # deferred: runner imports this module

    run = execute(cell.factory(), cell.config, seed=cell.seed, noise=cell.noise)
    return cell.key, CellOutcome(
        value=float(getattr(run, cell.metric)),
        sim_events=run.sim_events,
        ledger=run.ledger.summary(),
    )


def run_cells(
    cells: Sequence[ExperimentCell], *, jobs: int = 1, cache=None
) -> Dict[Hashable, CellOutcome]:
    """Execute every cell and return ``{key: outcome}``.

    Results are bit-identical for any ``jobs`` value: cells carry their
    own seeds and run on fresh systems, so scheduling order is
    irrelevant.

    ``cache`` (a :class:`~repro.experiments.cache.CellCache`) composes
    with ``jobs``: cached cells are served from disk, only the misses
    fan out over the pool, and every fresh outcome is persisted.  The
    cache is content-addressed, so a hit is by construction the outcome
    the simulation would have produced.
    """
    keys = [c.key for c in cells]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate experiment-cell keys")
    if cache is None:
        # named at call time: a patched ``_execute_cell`` sees every cell
        return dict(fan_out(_execute_cell, cells, jobs=jobs))
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
    fresh = run_cells(misses, jobs=jobs)
    for cell in misses:
        cache.put(digests[cell.key], fresh[cell.key])
    out.update(fresh)
    return out


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means one process per
    CPU, negative is an error."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _serially(why: str) -> None:
    warnings.warn(f"{why}; running serially", RuntimeWarning, stacklevel=4)


def _pooled(fn, items, workers: int, progress) -> Optional[list]:
    """:func:`fan_out`'s pool path; ``None`` (after a warning) when no
    pool can run the batch."""
    try:
        pickle.dumps((fn, items))
    except (pickle.PicklingError, AttributeError, TypeError) as exc:  # a lambda, closure or lock
        _serially(f"tasks not picklable ({exc})")
        return None
    try:
        # imported here: a serial run never loads the pool machinery
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        pool = ProcessPoolExecutor(max_workers=workers)
    except (ImportError, OSError) as exc:  # no _multiprocessing / no semaphores
        _serially(f"process pool unavailable ({exc})")
        return None
    try:
        try:
            futures = {pool.submit(fn, item): item for item in items}
        except OSError as exc:  # no worker process could be started
            _serially(f"process pool unavailable ({exc})")
            return None
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                fut.result()  # a task's own exception surfaces here, once
                if progress is not None:
                    progress(futures[fut])
        return [fut.result() for fut in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def fan_out(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    jobs: Optional[int],
    progress: Optional[Callable[[T], None]] = None,
) -> List[R]:
    """``[fn(item) for item in items]``, over a process pool of up to
    ``resolve_jobs(jobs)`` workers when that is more than one.

    Results come back in item order, whatever order the tasks finish in;
    ``progress(item)`` is called as each one finishes.  An unpicklable
    ``fn`` or batch, or a pool that cannot start, runs serially with a
    :class:`RuntimeWarning`.  An exception raised by a task propagates
    as is, once: the pending tasks are cancelled and nothing reruns.
    """
    jobs = resolve_jobs(jobs)
    if jobs > 1 and len(items) > 1:
        results = _pooled(fn, items, min(jobs, len(items)), progress)
        if results is not None:
            return results
    results = []
    for item in items:
        results.append(fn(item))
        if progress is not None:
            progress(item)
    return results
