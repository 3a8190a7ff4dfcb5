"""Tests for the libomptarget MemoryManager model (repro.omp.memmgr)."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import make_runtime

from repro.core import CostModel, RuntimeConfig
from repro.memory import KIB, MIB
from repro.omp import MapClause, MapKind
from repro.omp.memmgr import _size_class


def test_size_class_power_of_two():
    assert _size_class(1) == 1
    assert _size_class(3) == 4
    assert _size_class(4096) == 4096
    assert _size_class(4097) == 8192


def _size_class_by_loop(nbytes):
    size = 1
    while size < nbytes:
        size <<= 1
    return size


def test_size_class_matches_doubling_loop():
    """The closed form agrees with doubling from 1 over every size up to
    2**17 and around every power of two up to 2**40."""
    sizes = set(range(1, (1 << 17) + 1))
    for k in range(1, 41):
        sizes.update(((1 << k) - 1, 1 << k, (1 << k) + 1))
    for n in sorted(sizes):
        assert _size_class(n) == _size_class_by_loop(n), n


def churn_body(nbytes, cycles=10):
    def body(th, tid):
        buf = yield from th.alloc("buf", nbytes, payload=np.zeros(4))
        for _ in range(cycles):
            yield from th.target_enter_data([MapClause(buf, MapKind.TO)])
            yield from th.target_exit_data([MapClause(buf, MapKind.DELETE)])

    return body


def test_small_churn_hits_cache_after_warmup():
    rt = make_runtime(RuntimeConfig.COPY)
    res = rt.run(churn_body(64 * KIB, cycles=10))
    # one real pool allocation; nine cache hits
    assert rt.device_mem.cache_misses == 1
    assert rt.device_mem.cache_hits == 9
    # only the first allocation reaches HSA (init allocs are separate)
    assert res.hsa_trace.count("memory_pool_allocate") == 19 + 1


def test_large_allocations_pass_through():
    rt = make_runtime(RuntimeConfig.COPY)
    res = rt.run(churn_body(4 * MIB, cycles=5))
    assert rt.device_mem.passthrough == 5
    assert rt.device_mem.cache_hits == 0
    assert res.hsa_trace.count("memory_pool_allocate") == 19 + 5


def test_threshold_boundary():
    cost = CostModel()
    rt = make_runtime(RuntimeConfig.COPY, cost=cost)
    rt.run(churn_body(cost.memmgr_threshold_bytes, cycles=3))
    assert rt.device_mem.passthrough == 0
    rt2 = make_runtime(RuntimeConfig.COPY, cost=cost)
    rt2.run(churn_body(cost.memmgr_threshold_bytes + 1, cycles=3))
    assert rt2.device_mem.passthrough == 3


def test_memmgr_disabled_passthrough_everything():
    cost = replace(CostModel(), memmgr_enabled=False)
    rt = make_runtime(RuntimeConfig.COPY, cost=cost)
    res = rt.run(churn_body(64 * KIB, cycles=10))
    assert rt.device_mem.cache_hits == 0
    assert res.hsa_trace.count("memory_pool_allocate") == 19 + 10


def test_cached_bytes_accounting():
    rt = make_runtime(RuntimeConfig.COPY)
    rt.run(churn_body(48 * KIB, cycles=4))
    # one 64 KiB size-class block retained after the final unmap
    assert rt.device_mem.cached_bytes == 64 * KIB


def test_memmgr_unknown_free_rejected():
    rt = make_runtime(RuntimeConfig.COPY)
    from repro.memory import AddressRange

    gen = rt.device_mem.free(AddressRange(0xDEAD000, 64))
    with pytest.raises(ValueError):
        next(gen)


def test_functional_payloads_survive_cache_reuse():
    """Data copied into a cache-reused device block must be fresh."""
    rt = make_runtime(RuntimeConfig.COPY)
    seen = []

    def body(th, tid):
        for i in range(3):
            buf = yield from th.alloc(f"b{i}", 64 * KIB,
                                      payload=np.full(4, float(i)))
            yield from th.target(
                "read", 10.0,
                maps=[MapClause(buf, MapKind.TOFROM)],
                fn=lambda a, g, i=i: seen.append(float(a[f"b{i}"][0])),
            )
            yield from th.free(buf)

    rt.run(body)
    assert seen == [0.0, 1.0, 2.0]
