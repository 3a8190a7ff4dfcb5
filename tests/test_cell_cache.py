"""Content-addressed experiment cell cache: digests, store, wiring."""

import json
import os
from functools import partial

import pytest

from repro.core.config import RuntimeConfig
from repro.core.params import CostModel
from repro.experiments.cache import (
    CACHE_SCHEMA,
    CellCache,
    cell_digest,
    workload_fingerprint,
)
from repro.experiments.parallel import CellOutcome, ExperimentCell, run_cells
from repro.experiments.runner import ratio_experiment
from repro.workloads.base import Fidelity
from repro.workloads.qmcpack import QmcPackNio


def _cell(**overrides):
    spec = dict(
        key=("k", 0),
        factory=partial(QmcPackNio, size=2, n_threads=1, fidelity=Fidelity.TEST),
        config=RuntimeConfig.IMPLICIT_ZERO_COPY,
        seed=7,
        metric="steady_us",
        noise=True,
        cost=None,
    )
    spec.update(overrides)
    return ExperimentCell(**spec)


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def test_digest_is_stable_and_key_independent():
    a = cell_digest(_cell())
    b = cell_digest(_cell())
    assert a == b and len(a) == 64
    # the assembly key is presentation, not an input to the simulation
    assert cell_digest(_cell(key=("other", 99))) == a


@pytest.mark.parametrize(
    "override",
    [
        {"config": RuntimeConfig.COPY},
        {"seed": 8},
        {"metric": "elapsed_us"},
        {"noise": False},
        {"cost": CostModel(page_size=4096)},
        {"factory": partial(QmcPackNio, size=4, n_threads=1, fidelity=Fidelity.TEST)},
        {"factory": partial(QmcPackNio, size=2, n_threads=2, fidelity=Fidelity.TEST)},
        {"factory": partial(QmcPackNio, size=2, n_threads=1, fidelity=Fidelity.BENCH)},
        {"topology": 2},
        {"placement": "interleave"},
    ],
)
def test_digest_changes_with_any_input(override):
    assert cell_digest(_cell(**override)) != cell_digest(_cell())


def test_workload_fingerprint_includes_scalar_attrs():
    fp = workload_fingerprint(
        QmcPackNio(size=2, n_threads=1, fidelity=Fidelity.TEST)
    )
    assert fp["name"].startswith("qmcpack-nio")
    assert fp["fidelity"] == "test"
    # scalar params beyond describe() are folded in as attr.* entries
    assert any(k.startswith("attr.") for k in fp)
    assert "outputs" not in fp and "attr.outputs" not in fp


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    cache = CellCache(str(tmp_path))
    digest = cell_digest(_cell())
    assert cache.get(digest) is None
    out = CellOutcome(value=12.5, sim_events=100, ledger={"wait_us": 3.0})
    cache.put(digest, out)
    got = cache.get(digest)
    assert got == out
    assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1}
    # sharded layout
    assert (tmp_path / digest[:2] / (digest + ".json")).exists()


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = CellCache(str(tmp_path))
    digest = "ab" + "0" * 62
    path = tmp_path / "ab" / (digest + ".json")
    os.makedirs(path.parent)
    path.write_text("{truncated")
    assert cache.get(digest) is None
    assert cache.misses == 1


def test_cache_schema_mismatch_is_a_miss(tmp_path):
    cache = CellCache(str(tmp_path))
    digest = "cd" + "0" * 62
    path = tmp_path / "cd" / (digest + ".json")
    os.makedirs(path.parent)
    path.write_text(json.dumps({
        "schema": "repro-cell-v0", "value": 1.0, "sim_events": 1, "ledger": {},
    }))
    assert cache.get(digest) is None


def test_cache_schema_constant_in_entries(tmp_path):
    cache = CellCache(str(tmp_path))
    digest = cell_digest(_cell())
    cache.put(digest, CellOutcome(value=1.0, sim_events=1, ledger={}))
    raw = json.loads((tmp_path / digest[:2] / (digest + ".json")).read_text())
    assert raw["schema"] == CACHE_SCHEMA


# ---------------------------------------------------------------------------
# run_cells / ratio_experiment wiring
# ---------------------------------------------------------------------------


def test_run_cells_cold_then_warm(tmp_path):
    cells = [_cell(key=("c", rep), seed=100 + rep) for rep in range(2)]
    cold_cache = CellCache(str(tmp_path))
    cold = run_cells(cells, cache=cold_cache)
    assert cold_cache.misses == 2 and cold_cache.stores == 2
    warm_cache = CellCache(str(tmp_path))
    warm = run_cells(cells, cache=warm_cache)
    assert warm_cache.hits == 2
    assert warm_cache.misses == 0 and warm_cache.stores == 0
    assert warm == cold


def test_run_cells_partial_warm_executes_only_misses(tmp_path):
    first = [_cell(key=("c", 0), seed=100)]
    both = first + [_cell(key=("c", 1), seed=101)]
    run_cells(first, cache=CellCache(str(tmp_path)))
    cache = CellCache(str(tmp_path))
    out = run_cells(both, cache=cache)
    assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1
    assert set(out) == {("c", 0), ("c", 1)}


def test_ratio_experiment_cache_matches_uncached(tmp_path):
    factory = partial(QmcPackNio, size=2, n_threads=1, fidelity=Fidelity.TEST)
    configs = [RuntimeConfig.COPY, RuntimeConfig.IMPLICIT_ZERO_COPY]
    plain = ratio_experiment(factory, configs, reps=2)
    cache = CellCache(str(tmp_path))
    cold = ratio_experiment(factory, configs, reps=2, cache=cache)
    warm_cache = CellCache(str(tmp_path))
    warm = ratio_experiment(factory, configs, reps=2, cache=warm_cache)
    assert warm_cache.misses == 0
    for result in (cold, warm):
        assert result.summary() == plain.summary()
        assert result.ledgers == plain.ledgers
        assert result.sim_events == plain.sim_events
