"""Parallel experiment fan-out: determinism and fallback behaviour.

The contract is that ``jobs=N`` is an implementation detail: every
summary statistic (medians, CoVs), every ledger counter, and the total
simulated event count must be **bit-identical** to the serial run,
because each (workload, config, rep) cell runs on a fresh system seeded
only from its cell spec.
"""

import concurrent.futures
import json
import os
import subprocess
import sys
import warnings
from concurrent.futures import Future
from functools import partial

import pytest

import repro
import repro.check.runner as check_runner
from repro.core.config import RuntimeConfig
from repro.experiments.parallel import (
    CellOutcome,
    ExperimentCell,
    resolve_jobs,
    run_cells,
)
from repro.experiments.runner import ratio_experiment
from repro.workloads import Ep452, Fidelity, QmcPackNio

CONFIGS = [
    RuntimeConfig.COPY,
    RuntimeConfig.IMPLICIT_ZERO_COPY,
    RuntimeConfig.EAGER_MAPS,
]


def _summaries_equal(a, b) -> bool:
    return json.dumps(a.summary(), sort_keys=True) == json.dumps(
        b.summary(), sort_keys=True
    )


def test_qmcpack_parallel_bit_identical_to_serial():
    factory = partial(QmcPackNio, size=2, n_threads=2, fidelity=Fidelity.TEST)
    serial = ratio_experiment(factory, CONFIGS, reps=2, jobs=1)
    par = ratio_experiment(factory, CONFIGS, reps=2, jobs=4)
    assert _summaries_equal(serial, par)
    for config in CONFIGS:
        assert serial.times[config].median == par.times[config].median
        assert serial.times[config].cov == par.times[config].cov
        assert serial.ledgers[config] == par.ledgers[config]
    assert serial.sim_events == par.sim_events


def test_specaccel_parallel_bit_identical_to_serial():
    factory = partial(Ep452, fidelity=Fidelity.TEST)
    serial = ratio_experiment(
        factory, CONFIGS, metric="elapsed_us", reps=2, jobs=1
    )
    par = ratio_experiment(
        factory, CONFIGS, metric="elapsed_us", reps=2, jobs=4
    )
    assert _summaries_equal(serial, par)
    for config in CONFIGS:
        assert serial.ledgers[config] == par.ledgers[config]
    assert serial.sim_events == par.sim_events


def test_run_cells_rejects_duplicate_keys():
    factory = partial(QmcPackNio, size=2, n_threads=1, fidelity=Fidelity.TEST)
    cell = ExperimentCell(
        key=("a", 0), factory=factory, config=RuntimeConfig.COPY, seed=1
    )
    with pytest.raises(ValueError):
        run_cells([cell, cell])


def test_run_cells_serial_outcome_shape():
    factory = partial(QmcPackNio, size=2, n_threads=1, fidelity=Fidelity.TEST)
    cells = [
        ExperimentCell(
            key=("qmc", rep),
            factory=factory,
            config=RuntimeConfig.COPY,
            seed=100 + rep,
        )
        for rep in range(2)
    ]
    outcomes = run_cells(cells, jobs=1)
    assert set(outcomes) == {("qmc", 0), ("qmc", 1)}
    for out in outcomes.values():
        assert isinstance(out, CellOutcome)
        assert out.value > 0
        assert out.sim_events > 0
        assert isinstance(out.ledger, dict) and out.ledger


def test_unpicklable_cells_fall_back_to_serial():
    # a lambda factory cannot cross a process boundary; run_cells must
    # warn and still produce the same outcomes serially
    factory = lambda: QmcPackNio(size=2, n_threads=1, fidelity=Fidelity.TEST)  # noqa: E731
    cells = [
        ExperimentCell(
            key=("lam", rep), factory=factory, config=RuntimeConfig.COPY,
            seed=5 + rep,
        )
        for rep in range(2)
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcomes = run_cells(cells, jobs=4)
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    reference = run_cells(cells, jobs=1)
    assert outcomes == reference


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(1) == 1
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-1)


# ---------------------------------------------------------------------------
# a task's own exception: surfaces once, never reruns
# ---------------------------------------------------------------------------


class _InProcessPool:
    """Stands in for ``ProcessPoolExecutor`` in this process: the first
    task runs when it is submitted, the rest wait in a queue that
    ``shutdown`` runs, or cancels when asked to."""

    def __init__(self):
        self.submitted = 0
        self.queued = []
        self.cancelled = 0

    def submit(self, fn, *args):
        fut = Future()
        self.submitted += 1
        if self.submitted == 1:
            self._run(fut, fn, args)
        else:
            self.queued.append((fut, fn, args))
        return fut

    @staticmethod
    def _run(fut, fn, args):
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)

    def shutdown(self, wait=True, *, cancel_futures=False):
        queued, self.queued = self.queued, []
        for fut, fn, args in queued:
            if cancel_futures:
                self.cancelled += fut.cancel()
            else:
                self._run(fut, fn, args)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


@pytest.fixture
def pools(monkeypatch):
    made = []

    def make(max_workers):
        made.append(_InProcessPool())
        return made[-1]

    # where ``_pooled`` looks the pool class up, on first use
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make)
    return made


def _fail(calls, tag):
    calls.append(tag)
    raise OSError(f"task {tag} failed")


def test_task_oserror_in_run_cells_surfaces_once(pools):
    calls = []
    cells = [
        ExperimentCell(
            key=(tag,), factory=partial(_fail, calls, tag),
            config=RuntimeConfig.COPY, seed=1,
        )
        for tag in ("a", "b", "c")
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OSError, match="task a failed"):
            run_cells(cells, jobs=2)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert calls == ["a"]
    assert [p.cancelled for p in pools] == [2]


def test_task_oserror_in_check_all_surfaces_once(pools, monkeypatch):
    calls = []

    def check_named(name, *args, **kwargs):
        _fail(calls, name)

    monkeypatch.setattr(check_runner, "check_named", check_named)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OSError, match="task alloc-churn failed"):
            check_runner.check_all(jobs=2, static=True, dynamic=False)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert calls == ["alloc-churn"]
    assert [p.cancelled for p in pools] == [len(check_runner.WORKLOADS) - 1]


# ---------------------------------------------------------------------------
# load on use: a serial, noiseless run imports no pool and no numpy.random
# ---------------------------------------------------------------------------


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this ``repro``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )


_LOADED = """
import sys
print(sorted(m for m in ("concurrent.futures.process", "multiprocessing",
                         "numpy.random") if m in sys.modules))
"""


def test_serial_noiseless_runs_load_no_pool_and_no_numpy_random():
    out = _fresh_python("""
from repro.check import check_named
from repro.experiments.figures import collect_qmcpack_grid
from repro.experiments.parallel import fan_out
from repro.workloads import Fidelity
collect_qmcpack_grid(sizes=(2,), threads=(1,), fidelity=Fidelity.TEST, reps=1,
                     noise=False, jobs=1)
check_named("triad")
assert fan_out(abs, [-1, -2], jobs=1) == [1, 2]
""" + _LOADED)
    assert out.stdout.splitlines()[-1] == "[]"


def test_noisy_run_loads_numpy_random():
    out = _fresh_python("""
from repro.core.config import RuntimeConfig
from repro.experiments.runner import execute
from repro.workloads import Fidelity, QmcPackNio
execute(QmcPackNio(size=2, n_threads=1, fidelity=Fidelity.TEST),
        RuntimeConfig.COPY, seed=1, noise=True)
""" + _LOADED)
    assert out.stdout.splitlines()[-1] == "['numpy.random']"


def test_no_multiprocessing_runs_serially():
    """Without ``_multiprocessing`` the package still imports; ``jobs=1``
    runs quietly and ``jobs=2`` warns and returns the serial results."""
    out = _fresh_python("""
import sys, warnings
sys.modules["_multiprocessing"] = None
from repro.experiments.parallel import fan_out
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    serial = fan_out(abs, [-1, -2, -3], jobs=1)
print(serial, [str(w.message) for w in caught])
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    pooled = fan_out(abs, [-1, -2, -3], jobs=2)
print(pooled, [w.category.__name__ for w in caught])
print(any("running serially" in str(w.message) for w in caught))
""")
    assert out.stdout.splitlines() == [
        "[1, 2, 3] []",
        "[1, 2, 3] ['RuntimeWarning']",
        "True",
    ]
