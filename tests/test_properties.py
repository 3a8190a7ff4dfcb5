"""Property-based tests (hypothesis) on core data structures and on the
paper's central semantic invariant."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CostModel
from repro.memory import (
    PAGE_2M,
    PAGE_4K,
    AddressRange,
    MapOrigin,
    PageTable,
    PhysicalMemory,
    align_down,
    align_up,
    page_span,
)
from repro.memory.buffers import HostBuffer
from repro.omp.mapping import MappingError, PresentEntry, PresentTable
from repro.sim import Environment, Mutex, ReferenceEnvironment
from repro.trace.stats import cov, median

pages = st.sampled_from([PAGE_4K, PAGE_2M])


# ---------------------------------------------------------------------------
# address geometry
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**48), pages)
def test_align_up_down_bracket(value, page):
    lo, hi = align_down(value, page), align_up(value, page)
    assert lo <= value <= hi
    assert lo % page == 0 and hi % page == 0
    assert hi - lo in (0, page)


@given(st.integers(0, 2**48), st.integers(1, 2**32), pages)
def test_page_span_covers_range_exactly(start, nbytes, page):
    first, count = page_span(start, nbytes, page)
    assert first % page == 0
    assert first <= start
    # the span covers every byte of [start, start+nbytes)
    assert first + count * page >= start + nbytes
    # and is minimal: dropping the last page would lose the final byte
    assert first + (count - 1) * page < start + nbytes


@given(st.integers(0, 2**40), st.integers(1, 2**30), pages)
def test_n_pages_matches_iteration(start, nbytes, page):
    rng = AddressRange(start, nbytes)
    assert rng.n_pages(page) == len(list(rng.pages(page)))


@given(
    st.integers(0, 2**30), st.integers(1, 2**20),
    st.integers(0, 2**30), st.integers(1, 2**20),
)
def test_overlap_symmetry(s1, n1, s2, n2):
    a, b = AddressRange(s1, n1), AddressRange(s2, n2)
    assert a.overlaps(b) == b.overlaps(a)
    if a.contains_range(b):
        assert a.overlaps(b)


# ---------------------------------------------------------------------------
# physical memory accounting
# ---------------------------------------------------------------------------


@given(st.lists(st.tuples(st.booleans(), st.integers(1, 8)), max_size=60))
def test_physical_memory_accounting_invariants(ops):
    mem = PhysicalMemory(total_bytes=4096 * PAGE_2M, frame_bytes=PAGE_2M)
    live = []
    for is_alloc, count in ops:
        if is_alloc or not live:
            live.extend(mem.alloc_frames(count))
        else:
            take = min(count, len(live))
            for _ in range(take):
                mem.free_frame(live.pop())
        assert mem.frames_in_use == len(live)
        assert mem.frames_in_use + mem.frames_free == mem.total_frames
        assert mem.peak_frames >= mem.frames_in_use
        assert len(set(live)) == len(live)  # no frame handed out twice


# ---------------------------------------------------------------------------
# page table
# ---------------------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=80))
def test_pagetable_mirror_model(ops):
    pt = PageTable(PAGE_2M)
    model = {}
    for page_idx, install in ops:
        page = page_idx * PAGE_2M
        if install:
            if page in model:
                with pytest.raises(KeyError):
                    pt.install(page, page_idx, MapOrigin.PREFAULT)
            else:
                pt.install(page, page_idx, MapOrigin.PREFAULT)
                model[page] = page_idx
        else:
            if page in model:
                assert pt.evict(page).frame == model.pop(page)
            else:
                with pytest.raises(KeyError):
                    pt.evict(page)
        assert len(pt) == len(model)
        for p, f in model.items():
            assert pt.lookup(p).frame == f


# ---------------------------------------------------------------------------
# present table refcounts
# ---------------------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["map", "unmap"])),
                max_size=60))
def test_present_table_refcount_model(ops):
    table = PresentTable()
    bufs = [
        HostBuffer(f"b{i}", AddressRange(0x10000 + i * 0x10000, 4096))
        for i in range(6)
    ]
    refs = {i: 0 for i in range(6)}
    for i, op in ops:
        buf = bufs[i]
        if op == "map":
            if refs[i] == 0:
                table.insert(PresentEntry(host=buf, device=None, refcount=1))
            else:
                table.retain(buf)
            refs[i] += 1
        else:
            if refs[i] == 0:
                with pytest.raises(MappingError):
                    table.release(buf)
            else:
                entry = table.release(buf)
                refs[i] -= 1
                assert entry.refcount == refs[i]
                if refs[i] == 0:
                    table.remove(entry)
        assert table.total_refcount() == sum(refs.values())
        assert len(table) == sum(1 for r in refs.values() if r > 0)


# ---------------------------------------------------------------------------
# simulation engine ordering
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=40))
def test_engine_fires_in_time_order(delays):
    env = Environment()
    fired = []
    for i, d in enumerate(delays):
        env.timeout(d).add_callback(lambda ev, i=i, d=d: fired.append((d, i)))
    env.run()
    assert len(fired) == len(delays)
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # ties broken by schedule order
    for (t1, i1), (t2, i2) in zip(fired, fired[1:], strict=False):
        if t1 == t2:
            assert i1 < i2


@given(st.lists(st.floats(0.1, 100.0, allow_nan=False), min_size=1, max_size=20),
       st.integers(1, 4))
def test_resource_never_exceeds_capacity(durations, capacity):
    from repro.sim import Resource

    env = Environment()
    res = Resource(env, capacity=capacity)
    concurrent = [0]
    peak = [0]

    def worker(d):
        grant = yield res.acquire()
        concurrent[0] += 1
        peak[0] = max(peak[0], concurrent[0])
        yield env.timeout(d)
        concurrent[0] -= 1
        res.release(grant)

    for d in durations:
        env.process(worker(d))
    env.run()
    assert concurrent[0] == 0
    assert peak[0] <= capacity


#: one host step: a fused charge, a yielded sleep, a lock cycle through
#: grab-or-wait, charge and release, or the same cycle as a ``hold``
_host_steps = st.lists(
    st.tuples(st.sampled_from(["fuse", "sleep", "cycle", "hold"]),
              st.floats(0, 1e4, allow_nan=False, allow_infinity=False)),
    max_size=12)


def _charge(env, us):
    """(generator) The fused-delay idiom of the modeled code."""
    if not env.fuse(us):
        yield us


def _run_host_steps(env_cls, programs):
    env = env_cls()
    lock = Mutex(env)
    log = []

    def host(pid, steps):
        for kind, us in steps:
            if kind == "sleep":
                yield us
            elif kind == "fuse":
                yield from _charge(env, us)
            elif kind == "cycle" or not lock.hold(us):
                grant = lock.grab() or (yield lock)
                yield from _charge(env, us)
                lock.release(grant)
            # a fused charge is not read here, so back-to-back charges
            # meet the clock only at the next logged step
            log.append((None if kind == "fuse" else env.now, pid))

    for pid, steps in enumerate(programs):
        env.process(host(pid, steps))
    env.run()
    return log, env.now, env.processed_events


@given(st.lists(_host_steps, min_size=1, max_size=3))
@settings(deadline=None)
def test_fused_engine_matches_reference_on_generated_host_steps(programs):
    """Hosts sharing a lock: every step's clock and order, the final
    clock and the event count match the reference engine's."""
    assert (_run_host_steps(Environment, programs)
            == _run_host_steps(ReferenceEnvironment, programs))


# ---------------------------------------------------------------------------
# statistics vs numpy reference
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(0.1, 1e6, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_median_matches_numpy(values):
    assert median(values) == pytest.approx(float(np.median(values)))


@given(st.lists(st.floats(0.1, 1e6, allow_nan=False, allow_infinity=False),
                min_size=2, max_size=50))
def test_cov_nonnegative_and_scale_invariant(values):
    c = cov(values)
    assert c >= 0.0
    assert cov([v * 7.5 for v in values]) == pytest.approx(c, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# THE invariant: random OpenMP programs are configuration-independent
# ---------------------------------------------------------------------------

_kernel_ops = st.sampled_from(["scale", "add", "mix"])


@st.composite
def mini_programs(draw):
    """A random sequence of offload steps over two buffers.

    The ``always`` modifier is drawn *per buffer*, not per step: a program
    that mixes always- and non-always tofrom maps on a buffer whose host
    copy is stale is genuinely non-portable between Copy and unified
    memory (the always-to transfer clobbers device-side updates the host
    never saw).  OpenMP makes such programs the application's bug; the
    equivalence property quantifies over *consistency-respecting*
    programs, as the paper's §IV equivalence claim implicitly does.
    """
    steps = draw(st.lists(
        st.tuples(_kernel_ops, st.integers(0, 1)),
        min_size=1, max_size=8,
    ))
    always_flags = (draw(st.booleans()), draw(st.booleans()))
    sizes = (draw(st.integers(1, 16)) * PAGE_2M,
             draw(st.integers(1, 16)) * PAGE_2M)
    return steps, always_flags, sizes


@given(mini_programs())
@settings(max_examples=25, deadline=None)
def test_random_programs_equivalent_across_configs(program):
    """§IV: 'From an OpenMP semantics viewpoint, they are all equivalent.'"""
    from repro.core import ApuSystem, RuntimeConfig
    from repro.omp import MapClause, MapKind, OpenMPRuntime

    steps, always_flags, sizes = program

    def run(config):
        system = ApuSystem(CostModel())
        rt = OpenMPRuntime(system, config)
        out = {}

        def body(th, tid):
            a = yield from th.alloc("a", sizes[0], payload=np.arange(8.0))
            b = yield from th.alloc("b", sizes[1], payload=np.ones(8))
            yield from th.target_enter_data(
                [MapClause(a, MapKind.TO), MapClause(b, MapKind.TO)]
            )
            bufs = (a, b)
            for op, target_idx in steps:
                buf = bufs[target_idx]
                other = bufs[1 - target_idx]
                always = always_flags[target_idx]

                def fn(args, g, op=op, t=buf.name, o=other.name):
                    if op == "scale":
                        args[t] *= 1.5
                    elif op == "add":
                        args[t] += 1.0
                    else:
                        args[t] += 0.5 * args[o]

                yield from th.target(
                    op, 10.0,
                    maps=[
                        MapClause(buf, MapKind.TOFROM, always=always),
                        MapClause(other, MapKind.ALLOC),
                    ],
                    fn=fn,
                )
            yield from th.target_exit_data(
                [MapClause(a, MapKind.FROM), MapClause(b, MapKind.FROM)]
            )
            out["a"], out["b"] = a.payload.copy(), b.payload.copy()

        rt.run(body)
        return out

    results = {cfg: run(cfg) for cfg in (
        RuntimeConfig.COPY,
        RuntimeConfig.UNIFIED_SHARED_MEMORY,
        RuntimeConfig.IMPLICIT_ZERO_COPY,
        RuntimeConfig.EAGER_MAPS,
    )}
    ref = results[RuntimeConfig.COPY]
    for cfg, vals in results.items():
        assert np.array_equal(vals["a"], ref["a"]), cfg
        assert np.array_equal(vals["b"], ref["b"]), cfg
