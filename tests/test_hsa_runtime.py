"""Unit tests for the HSA/ROCr runtime model (repro.hsa)."""

import numpy as np
import pytest

from repro.core.params import CostModel
from repro.driver import Kfd
from repro.hsa import HsaRuntime, Signal
from repro.memory import (
    GIB,
    MIB,
    PAGE_2M,
    AddressRange,
    OsAllocator,
    PageTable,
    PhysicalMemory,
)
from repro.sim import Environment, Mutex, ReferenceEnvironment
from repro.trace.hsa_trace import HsaTrace

ENGINES = (Environment, ReferenceEnvironment)


def make_hsa(xnack=True, cost=None, env_cls=Environment, detailed=False):
    env = env_cls()
    cost = cost or CostModel()
    mem = PhysicalMemory(total_bytes=16 * GIB, frame_bytes=PAGE_2M)
    cpu_pt = PageTable(PAGE_2M, "cpu")
    gpu_pt = PageTable(PAGE_2M, "gpu")
    kfd = Kfd(cost, mem, cpu_pt, gpu_pt, xnack_enabled=xnack)
    osalloc = OsAllocator(mem, cpu_pt, on_unmap=kfd.mmu_unmap)
    trace = HsaTrace(detailed=detailed)
    hsa = HsaRuntime(env, cost, kfd, trace)
    return env, cost, hsa, kfd, osalloc, trace


def run_proc(env, gen):
    return env.run(env.process(gen))


# ---------------------------------------------------------------------------
# memory pool
# ---------------------------------------------------------------------------


def test_pool_allocate_traced_and_timed():
    env, cost, hsa, _, _, trace = make_hsa()

    def proc():
        rng = yield from hsa.memory_pool_allocate(3 * PAGE_2M)
        return rng

    rng = run_proc(env, proc())
    assert rng.nbytes == 3 * PAGE_2M
    assert trace.count("memory_pool_allocate") == 1
    expected = cost.pool_alloc_base_us + 3 * cost.pool_alloc_page_us
    assert env.now == pytest.approx(expected)


def test_pool_cache_hit_is_cheap():
    env, cost, hsa, _, _, _ = make_hsa()

    def proc():
        rng = yield from hsa.memory_pool_allocate(PAGE_2M)
        yield from hsa.memory_pool_free(rng)
        t0 = env.now
        yield from hsa.memory_pool_allocate(PAGE_2M)
        return env.now - t0

    dur = run_proc(env, proc())
    assert dur == pytest.approx(cost.pool_alloc_base_us)
    assert hsa.pool.cache_hits == 1


def test_pool_large_blocks_released_not_retained():
    env, cost, hsa, kfd, _, _ = make_hsa()
    big = cost.pool_retain_max_bytes + PAGE_2M

    def proc():
        rng = yield from hsa.memory_pool_allocate(big)
        yield from hsa.memory_pool_free(rng)
        t0 = env.now
        yield from hsa.memory_pool_allocate(big)
        return env.now - t0

    dur = run_proc(env, proc())
    # second allocation pays full driver work again (spC/bt mechanism)
    n_pages = AddressRange(0, big).n_pages(PAGE_2M)
    assert dur == pytest.approx(cost.pool_alloc_base_us + n_pages * cost.pool_alloc_page_us)
    assert hsa.pool.cache_hits == 0


def test_pool_live_bytes_and_unknown_free():
    env, _, hsa, _, _, _ = make_hsa()

    def proc():
        rng = yield from hsa.memory_pool_allocate(MIB)
        return rng

    rng = run_proc(env, proc())
    assert hsa.pool.live_bytes == PAGE_2M  # backing is page-granular
    with pytest.raises(ValueError):
        hsa.pool.free(AddressRange(0x1234, 10))


def test_pool_drain_releases_retained_blocks():
    env, _, hsa, _, _, _ = make_hsa()

    def proc():
        rng = yield from hsa.memory_pool_allocate(PAGE_2M)
        yield from hsa.memory_pool_free(rng)

    run_proc(env, proc())
    assert hsa.pool.bytes_retained == PAGE_2M
    hsa.pool.drain()
    assert hsa.pool.bytes_retained == 0


# ---------------------------------------------------------------------------
# copies
# ---------------------------------------------------------------------------


def test_async_copy_moves_data_and_traces():
    env, cost, hsa, _, _, trace = make_hsa()
    src = np.arange(16.0)
    dst = np.zeros(16)

    def proc():
        sig = hsa.memory_async_copy(dst, src, 128)
        yield from hsa.signal_wait_scacquire(sig)

    run_proc(env, proc())
    assert np.array_equal(dst, src)
    assert trace.count("memory_async_copy") == 1
    assert trace.count("signal_wait_scacquire") == 1
    assert trace.total_us("memory_async_copy") == pytest.approx(cost.copy_us(128))


def test_copy_duration_scales_with_bytes():
    env, cost, hsa, _, _, trace = make_hsa()

    def proc():
        sig = hsa.memory_async_copy(None, None, GIB)
        yield from hsa.signal_wait_scacquire(sig)

    run_proc(env, proc())
    assert trace.total_us("memory_async_copy") == pytest.approx(
        cost.copy_base_us + GIB / cost.copy_bytes_per_us
    )


def test_sdma_engines_limit_concurrency():
    env, cost, hsa, _, _, _ = make_hsa()
    n = cost.n_sdma_engines + 1
    one_copy = cost.copy_us(2**20)

    def proc():
        sigs = [hsa.memory_async_copy(None, None, 2**20, tag=f"c{i}") for i in range(n)]
        yield from hsa.signal_wait_scacquire_all(sigs)

    run_proc(env, proc())
    # third copy had to wait for an engine: two rounds of copy time
    assert env.now == pytest.approx(2 * one_copy + cost.signal_wait_base_us)


def test_async_handler_traced_without_wait():
    env, _, hsa, _, _, trace = make_hsa()

    def proc():
        hsa.memory_async_copy(None, None, 64, handler=True)
        yield env.timeout(1000.0)

    run_proc(env, proc())
    env.run()
    assert trace.count("signal_async_handler") == 1
    assert trace.count("signal_wait_scacquire") == 0


def test_partial_payload_copy_is_safe():
    env, _, hsa, _, _, _ = make_hsa()
    src = np.arange(8.0)
    dst = np.zeros(4)

    def proc():
        sig = hsa.memory_async_copy(dst, src, 64)
        yield from hsa.signal_wait_scacquire(sig)

    run_proc(env, proc())
    assert np.array_equal(dst, src[:4])


def test_negative_copy_size_rejected():
    _, _, hsa, _, _, _ = make_hsa()
    with pytest.raises(ValueError):
        hsa.memory_async_copy(None, None, -1)


# ---------------------------------------------------------------------------
# signal waits
# ---------------------------------------------------------------------------


def test_wait_latency_includes_blocked_time():
    env, cost, hsa, _, _, trace = make_hsa()
    sig = Signal(env)

    def completer():
        yield env.timeout(50.0)
        sig.complete()

    def waiter():
        yield from hsa.signal_wait_scacquire(sig)

    env.process(completer())
    run_proc(env, waiter())
    assert trace.total_us("signal_wait_scacquire") == pytest.approx(
        50.0 + cost.signal_wait_base_us
    )


def test_wait_on_done_signal_costs_base_only():
    env, cost, hsa, _, _, trace = make_hsa()
    sig = Signal(env)
    sig.complete()

    def waiter():
        yield from hsa.signal_wait_scacquire(sig)

    run_proc(env, waiter())
    assert trace.total_us("signal_wait_scacquire") == pytest.approx(
        cost.signal_wait_base_us
    )


def test_barrier_wait_records_one_call():
    env, _, hsa, _, _, trace = make_hsa()

    def proc():
        sigs = [hsa.memory_async_copy(None, None, 64) for _ in range(4)]
        yield from hsa.signal_wait_scacquire_all(sigs)

    run_proc(env, proc())
    assert trace.count("signal_wait_scacquire") == 1


# ---------------------------------------------------------------------------
# prefault syscall
# ---------------------------------------------------------------------------


def test_svm_attributes_set_first_and_repeat():
    env, cost, hsa, _, osalloc, trace = make_hsa()
    rng = osalloc.alloc(4 * PAGE_2M)

    def proc():
        r1 = yield from hsa.svm_attributes_set(rng)
        r2 = yield from hsa.svm_attributes_set(rng)
        return r1, r2

    r1, r2 = run_proc(env, proc())
    assert (r1.n_new, r2.n_new) == (4, 0)
    assert trace.count("svm_attributes_set") == 2
    call_base = max(cost.prefault_call_us, cost.syscall_base_us)
    first = call_base + 4 * cost.prefault_page_us
    repeat = call_base + 4 * cost.prefault_verify_page_us
    assert trace.total_us("svm_attributes_set") == pytest.approx(first + repeat)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_kernel_runs_functional_payload():
    env, _, hsa, _, _, _ = make_hsa()
    data = np.zeros(4)

    def body():
        data[:] = 7.0

    def proc():
        sig = hsa.dispatch_kernel("k", 100.0, fn=body)
        yield from hsa.signal_wait_scacquire(sig)

    run_proc(env, proc())
    assert np.all(data == 7.0)


def test_kernel_faults_extend_duration():
    env, cost, hsa, _, osalloc, _ = make_hsa()
    rng = osalloc.alloc(2 * PAGE_2M)

    def proc():
        sig = hsa.dispatch_kernel("k", 100.0, fault_ranges=[rng])
        yield from hsa.signal_wait_scacquire(sig)
        return sig.value

    rec = run_proc(env, proc())
    assert rec.n_faults == 2
    assert rec.fault_stall_us == pytest.approx(
        cost.xnack_kernel_entry_us + 2 * cost.xnack_fault_us_per_page
    )
    assert rec.end_us - rec.start_us == pytest.approx(
        cost.dispatch_us + 100.0 + rec.fault_stall_us
    )


def test_kernel_second_launch_no_faults():
    env, _, hsa, _, osalloc, _ = make_hsa()
    rng = osalloc.alloc(2 * PAGE_2M)

    def proc():
        s1 = hsa.dispatch_kernel("k1", 10.0, fault_ranges=[rng])
        yield from hsa.signal_wait_scacquire(s1)
        s2 = hsa.dispatch_kernel("k2", 10.0, fault_ranges=[rng])
        yield from hsa.signal_wait_scacquire(s2)
        return s2.value

    rec = run_proc(env, proc())
    assert rec.n_faults == 0


def test_gpu_queue_capacity_limits_kernel_concurrency():
    env, cost, hsa, _, _, _ = make_hsa()
    n = cost.n_gpu_queues + 1

    def proc():
        sigs = [hsa.dispatch_kernel(f"k{i}", 100.0) for i in range(n)]
        yield from hsa.signal_wait_scacquire_all(sigs)

    run_proc(env, proc())
    per = cost.dispatch_us + 100.0
    assert env.now == pytest.approx(2 * per + cost.signal_wait_base_us)


def test_kernel_on_complete_callback():
    env, _, hsa, _, _, _ = make_hsa()
    seen = []

    def proc():
        sig = hsa.dispatch_kernel("k", 42.0, on_complete=seen.append)
        yield from hsa.signal_wait_scacquire(sig)

    run_proc(env, proc())
    assert len(seen) == 1 and seen[0].compute_us == 42.0


def test_kernel_negative_duration_rejected():
    _, _, hsa, _, _, _ = make_hsa()
    with pytest.raises(ValueError):
        hsa.dispatch_kernel("k", -1.0)


# ---------------------------------------------------------------------------
# async operations run as engine callbacks: the clock, event counts and
# trace rows below were measured on the runtime that spawned one process
# per copy, kernel and async handler; both engines must reproduce them
# ---------------------------------------------------------------------------


def _snapshot(env, trace):
    rows = [(e.name, e.start_us, e.duration_us, e.tag) for e in trace.events]
    return env.now, env.processed_events, rows


def _handler_at_stop(env_cls, extra, stop_on_signal, tie=False, late_mark=False):
    env, cost, hsa, _, _, trace = make_hsa(env_cls=env_cls, detailed=True)
    sig = hsa.memory_async_copy(None, None, 64, tag="h", handler=True)
    seen, ends = [], []

    def host():
        yield env.timeout(cost.copy_us(64) + extra)

    def at_completion():
        # one hop lets the copy take its SDMA engine and queue its charge
        # on both schedulers; the wait then ends at the copy's completion
        # time behind that charge, between sig.complete() and the signal's
        # pop, so the zero-delay wait is queued behind the copy's end event
        yield env.timeout(0.0)
        ends.append(env.timeout(cost.copy_us(64)))
        yield ends[0]
        seen.append(env.processed_events)
        yield env.timeout(0.0)
        seen.append(env.processed_events)

    proc = env.process(host())
    if tie:
        env.process(at_completion())
    if late_mark:  # stop after sig.complete(), before the signal pops
        env.run(until=1.0)
        env.run(until=ends[0])
    env.run(until=sig.event if stop_on_signal else proc)
    first = _snapshot(env, trace)
    env.run()
    return first, _snapshot(env, trace), seen


#: case -> (host wait past the copy's end, stop on the signal, tie
#: process, stop mark added only after the signal completed)
HANDLER_CASES = {
    "in-flight": (0.5, False, False, False),
    "ends-at-stop": (CostModel().signal_handler_us, False, False, False),
    "stop-on-signal": (0.5, True, False, False),
    "stop-on-signal-tie": (0.5, True, True, False),
    "stop-on-signal-late-mark": (0.5, True, True, True),
}

HANDLER_AT_STOP = {
    "in-flight": (
        (3.000045714285714, 9, [
            ("memory_async_copy", 0.0, 2.500045714285714, "h"),
        ]),
        (4.000045714285714, 11, [
            ("memory_async_copy", 0.0, 2.500045714285714, "h"),
            ("signal_async_handler", 2.500045714285714, 1.5, "h"),
        ]),
        [],
    ),
    "ends-at-stop": (
        (4.000045714285714, 10, [
            ("memory_async_copy", 0.0, 2.500045714285714, "h"),
            ("signal_async_handler", 2.500045714285714, 1.5, "h"),
        ]),
        (4.000045714285714, 11, [
            ("memory_async_copy", 0.0, 2.500045714285714, "h"),
            ("signal_async_handler", 2.500045714285714, 1.5, "h"),
        ]),
        [],
    ),
    "stop-on-signal": (
        (2.500045714285714, 6, [
            ("memory_async_copy", 0.0, 2.500045714285714, "h"),
        ]),
        (4.000045714285714, 11, [
            ("memory_async_copy", 0.0, 2.500045714285714, "h"),
            ("signal_async_handler", 2.500045714285714, 1.5, "h"),
        ]),
        [],
    ),
    # the zero-delay wait runs behind the copy's end event: 11, not 10,
    # also when the run's stop mark came after sig.complete()
    "stop-on-signal-late-mark": (
        (2.500045714285714, 9, [
            ("memory_async_copy", 0.0, 2.500045714285714, "h"),
        ]),
        (4.000045714285714, 16, [
            ("memory_async_copy", 0.0, 2.500045714285714, "h"),
            ("signal_async_handler", 2.500045714285714, 1.5, "h"),
        ]),
        [8, 11],
    ),
    "stop-on-signal-tie": (
        (2.500045714285714, 9, [
            ("memory_async_copy", 0.0, 2.500045714285714, "h"),
        ]),
        (4.000045714285714, 16, [
            ("memory_async_copy", 0.0, 2.500045714285714, "h"),
            ("signal_async_handler", 2.500045714285714, 1.5, "h"),
        ]),
        [8, 11],
    ),
}


@pytest.mark.parametrize("env_cls", ENGINES)
@pytest.mark.parametrize("case", sorted(HANDLER_AT_STOP))
def test_handler_charge_at_run_until_event_stop(env_cls, case):
    assert _handler_at_stop(env_cls, *HANDLER_CASES[case]) == HANDLER_AT_STOP[case]


def _completions_on_horizons(env_cls):
    env, cost, hsa, _, _, trace = make_hsa(env_cls=env_cls, detailed=True)

    def host():
        copy = hsa.memory_async_copy(None, None, 64, tag="c")
        kernel = hsa.dispatch_kernel("k", 10.0)
        yield from hsa.signal_wait_scacquire(copy)
        yield from hsa.signal_wait_scacquire(kernel)

    env.process(host())
    seen = []
    for horizon in (cost.copy_us(64), cost.dispatch_us + 10.0, None):
        env.run(until=horizon)
        seen.append(_snapshot(env, trace))
    return seen


COMPLETIONS_ON_HORIZONS = [
    (2.500045714285714, 8, [
        ("memory_async_copy", 0.0, 2.500045714285714, "c"),
    ]),
    (14.0, 12, [
        ("memory_async_copy", 0.0, 2.500045714285714, "c"),
        ("signal_wait_scacquire", 0.0, 3.500045714285714, ""),
    ]),
    (15.0, 14, [
        ("memory_async_copy", 0.0, 2.500045714285714, "c"),
        ("signal_wait_scacquire", 0.0, 3.500045714285714, ""),
        ("signal_wait_scacquire", 3.500045714285714, 11.499954285714285, ""),
    ]),
]


@pytest.mark.parametrize("env_cls", ENGINES)
def test_copy_and_kernel_completing_on_a_numeric_horizon(env_cls):
    assert _completions_on_horizons(env_cls) == COMPLETIONS_ON_HORIZONS


def _reads_before_signal(env_cls, handler):
    env, cost, hsa, _, _, trace = make_hsa(env_cls=env_cls, detailed=True)
    seen = []

    def host():
        sig = hsa.memory_async_copy(None, None, 2**20, tag="r", handler=handler)
        seen.append(env.processed_events)
        if not env.fuse(1.0):
            yield env.timeout(1.0)
        seen.append(env.processed_events)
        yield env.timeout(1.0)
        seen.append(env.processed_events)
        yield sig.event
        seen.append(env.processed_events)
        yield from hsa.signal_wait_scacquire(sig)
        seen.append(env.processed_events)

    def reader():
        yield env.timeout(cost.copy_us(2**20))
        seen.append(("tie", env.processed_events))

    proc = env.process(host())
    env.process(reader())
    env.run(until=proc)
    return seen, _snapshot(env, trace)


READS_BEFORE_SIGNAL = {
    False: (
        [1, 5, 6, ("tie", 7), 10, 12],
        (4.248982857142857, 13, [
            ("memory_async_copy", 0.0, 3.248982857142857, "r"),
            ("signal_wait_scacquire", 3.248982857142857, 1.0, ""),
        ]),
    ),
    True: (
        [1, 6, 7, ("tie", 8), 11, 13],
        (4.248982857142857, 14, [
            ("memory_async_copy", 0.0, 3.248982857142857, "r"),
            ("signal_wait_scacquire", 3.248982857142857, 1.0, ""),
        ]),
    ),
}


@pytest.mark.parametrize("env_cls", ENGINES)
@pytest.mark.parametrize("handler", [False, True])
def test_processed_events_read_between_submit_and_signal(env_cls, handler):
    assert _reads_before_signal(env_cls, handler) == READS_BEFORE_SIGNAL[handler]


def _contending_handlers(env_cls):
    env, cost, hsa, _, _, trace = make_hsa(
        cost=CostModel().with_noise(), env_cls=env_cls, detailed=True)

    def host():
        sigs = [hsa.memory_async_copy(None, None, (i + 1) * 2**20, tag=f"c{i}",
                                      handler=True)
                for i in range(cost.n_sdma_engines + 1)]
        yield from hsa.signal_wait_scacquire_all(sigs)

    env.run(until=env.process(host()))
    first = _snapshot(env, trace)
    env.run()
    return first, _snapshot(env, trace)


CONTENDING_HANDLERS = (
    (9.053761535911224, 26, [
        ("memory_async_copy", 0.0, 3.274665628343523, "c0"),
        ("memory_async_copy", 0.0, 3.996306759732855, "c1"),
        ("signal_async_handler", 3.274665628343523, 1.5169687587122558, "c0"),
        ("signal_async_handler", 3.996306759732855, 1.5058876588486356, "c1"),
        ("memory_async_copy", 0.0, 8.036983897529872, "c2"),
        ("signal_wait_scacquire", 0.0, 9.053761535911224, ""),
    ]),
    (9.585302718690803, 28, [
        ("memory_async_copy", 0.0, 3.274665628343523, "c0"),
        ("memory_async_copy", 0.0, 3.996306759732855, "c1"),
        ("signal_async_handler", 3.274665628343523, 1.5169687587122558, "c0"),
        ("signal_async_handler", 3.996306759732855, 1.5058876588486356, "c1"),
        ("memory_async_copy", 0.0, 8.036983897529872, "c2"),
        ("signal_wait_scacquire", 0.0, 9.053761535911224, ""),
        ("signal_async_handler", 8.036983897529872, 1.5483188211609307, "c2"),
    ]),
)


@pytest.mark.parametrize("env_cls", ENGINES)
def test_handler_copies_contending_for_the_sdma_engines(env_cls):
    assert _contending_handlers(env_cls) == CONTENDING_HANDLERS


def _lone_waiter(env_cls, case):
    """A host thread is the only waiter of a copy's signal and acts first
    on it in one of several ways; the reference engine pops the copy's
    end event right behind the signal, so it must count exactly there."""
    env, cost, hsa, _, _, trace = make_hsa(env_cls=env_cls, detailed=True)
    lock = Mutex(env, "lock")
    seen = []

    def host():
        sig = hsa.memory_async_copy(None, None, 64, tag="w")
        env.timeout(50.0)  # a bystander past every charge below
        yield sig.event
        if case == "read-fuse-read":
            seen.append(env.processed_events)
            if not env.fuse(1.0):
                yield env.timeout(1.0)
        elif case == "schedule-then-fuse":
            env.timeout(0.0).callbacks.append(
                lambda _e: seen.append(("cb", env.processed_events)))
            if not env.fuse(1.0):
                yield env.timeout(1.0)
        elif case == "grab":
            grant = lock.grab() or (yield lock.acquire())
            seen.append(env.processed_events)
            lock.release(grant)
        elif case == "hold" and not lock.hold(1.0):
            grant = lock.grab() or (yield lock.acquire())
            if not env.fuse(1.0):
                yield env.timeout(1.0)
            lock.release(grant)
        elif case == "suspend":
            yield env.timeout(1.0)
        elif case == "raise":
            raise RuntimeError("waiter failed")
        seen.append(env.processed_events)
        yield from hsa.signal_wait_scacquire(sig)
        seen.append(env.processed_events)

    try:
        env.run(until=env.process(host()))
    except RuntimeError as exc:
        seen.append(str(exc))
    first = _snapshot(env, trace)
    env.run()
    return first, _snapshot(env, trace), seen


#: measured on the runtime that held a lone waiter off and counted the end
#: event after it returned; identical on both engines
LONE_WAITER = {
    "read-fuse-read": (
        (4.500045714285714, 9, [
            ("memory_async_copy", 0.0, 2.500045714285714, "w"),
            ("signal_wait_scacquire", 3.500045714285714, 1.0, ""),
        ]),
        (50.0, 10, [
            ("memory_async_copy", 0.0, 2.500045714285714, "w"),
            ("signal_wait_scacquire", 3.500045714285714, 1.0, ""),
        ]),
        [5, 7, 8],
    ),
    "schedule-then-fuse": (
        (4.500045714285714, 10, [
            ("memory_async_copy", 0.0, 2.500045714285714, "w"),
            ("signal_wait_scacquire", 3.500045714285714, 1.0, ""),
        ]),
        (50.0, 11, [
            ("memory_async_copy", 0.0, 2.500045714285714, "w"),
            ("signal_wait_scacquire", 3.500045714285714, 1.0, ""),
        ]),
        [("cb", 7), 8, 9],
    ),
    "grab": (
        (3.500045714285714, 9, [
            ("memory_async_copy", 0.0, 2.500045714285714, "w"),
            ("signal_wait_scacquire", 2.500045714285714, 1.0, ""),
        ]),
        (50.0, 10, [
            ("memory_async_copy", 0.0, 2.500045714285714, "w"),
            ("signal_wait_scacquire", 2.500045714285714, 1.0, ""),
        ]),
        [7, 7, 8],
    ),
    "hold": (
        (4.500045714285714, 10, [
            ("memory_async_copy", 0.0, 2.500045714285714, "w"),
            ("signal_wait_scacquire", 3.500045714285714, 1.0, ""),
        ]),
        (50.0, 11, [
            ("memory_async_copy", 0.0, 2.500045714285714, "w"),
            ("signal_wait_scacquire", 3.500045714285714, 1.0, ""),
        ]),
        [8, 9],
    ),
    "suspend": (
        (4.500045714285714, 9, [
            ("memory_async_copy", 0.0, 2.500045714285714, "w"),
            ("signal_wait_scacquire", 3.500045714285714, 1.0, ""),
        ]),
        (50.0, 10, [
            ("memory_async_copy", 0.0, 2.500045714285714, "w"),
            ("signal_wait_scacquire", 3.500045714285714, 1.0, ""),
        ]),
        [7, 8],
    ),
    "raise": (
        (2.500045714285714, 5, [
            ("memory_async_copy", 0.0, 2.500045714285714, "w"),
        ]),
        (50.0, 6, [
            ("memory_async_copy", 0.0, 2.500045714285714, "w"),
        ]),
        ["waiter failed"],
    ),
}


@pytest.mark.parametrize("env_cls", ENGINES)
@pytest.mark.parametrize("case", sorted(LONE_WAITER))
def test_lone_waiter_counts_the_end_event_where_the_reference_pops_it(env_cls, case):
    assert _lone_waiter(env_cls, case) == LONE_WAITER[case]


def test_copy_cell_spawns_only_host_thread_processes(monkeypatch):
    from repro.core import RuntimeConfig
    from repro.experiments.runner import execute
    from repro.sim import Process
    from repro.workloads.base import Fidelity
    from repro.workloads.qmcpack import QmcPackNio

    names = []
    init = Process.__init__

    def counting_init(self, env, gen, name=""):
        init(self, env, gen, name)
        names.append(self.name)

    monkeypatch.setattr(Process, "__init__", counting_init)
    run = execute(QmcPackNio(size=2, n_threads=2, fidelity=Fidelity.TEST),
                  RuntimeConfig.COPY)
    assert sorted(names) == ["omp-main", "omp-thread-0", "omp-thread-1"]
    # pinned from the runtime that spawned one process per copy, kernel
    # and async handler (6217 + 1988 + 4224 of them in this cell)
    assert run.sim_events == 103916
    assert run.hsa_trace.as_rows() == [
        ("signal_wait_scacquire", 6196, 51961.82121142423, 8.386349453102683),
        ("memory_pool_allocate", 277, 27570.0, 99.53068592057761),
        ("memory_async_copy", 6217, 16570.44351999508, 2.6653439794105),
        ("signal_async_handler", 4224, 6336.0, 1.5),
        ("memory_pool_free", 242, 1210.0, 5.0),
    ]
