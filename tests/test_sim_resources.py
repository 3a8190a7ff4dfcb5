"""Unit tests for resources and RNG streams (repro.sim)."""

import numpy as np
import pytest

from repro.sim import Environment, Jitter, Mutex, Resource, RngHub, SimulationError


def test_resource_grants_up_to_capacity_without_waiting():
    env = Environment()
    res = Resource(env, capacity=2)
    times = []

    def worker():
        grant = yield res.acquire()
        times.append(env.now)
        yield env.timeout(10.0)
        res.release(grant)

    for _ in range(2):
        env.process(worker())
    env.run()
    assert times == [0.0, 0.0]


def test_resource_queues_beyond_capacity():
    env = Environment()
    res = Resource(env, capacity=1)
    start_times = {}

    def worker(tag):
        grant = yield res.acquire()
        start_times[tag] = env.now
        yield env.timeout(5.0)
        res.release(grant)

    for tag in ("a", "b", "c"):
        env.process(worker(tag))
    env.run()
    assert start_times == {"a": 0.0, "b": 5.0, "c": 10.0}


def test_resource_fifo_fairness():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(tag, arrive):
        yield env.timeout(arrive)
        grant = yield res.acquire()
        order.append(tag)
        yield env.timeout(100.0)
        res.release(grant)

    env.process(worker("first", 1.0))
    env.process(worker("second", 2.0))
    env.process(worker("third", 3.0))
    env.run()
    assert order == ["first", "second", "third"]


def test_grab_is_non_blocking():
    env = Environment()
    res = Resource(env, capacity=1)
    g = res.grab()
    assert g is not None
    assert res.grab() is None
    res.release(g)
    assert res.grab() is not None


def test_double_release_rejected():
    env = Environment()
    res = Resource(env, capacity=1)
    g = res.grab()
    res.release(g)
    with pytest.raises(SimulationError):
        res.release(g)


def test_release_to_wrong_resource_rejected():
    env = Environment()
    r1, r2 = Resource(env), Resource(env)
    g = r1.grab()
    with pytest.raises(SimulationError):
        r2.release(g)


def test_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_mutex_serializes():
    env = Environment()
    lock = Mutex(env)
    intervals = []

    def critical(tag):
        grant = yield lock.acquire()
        start = env.now
        yield env.timeout(3.0)
        intervals.append((tag, start, env.now))
        lock.release(grant)

    for tag in range(4):
        env.process(critical(tag))
    env.run()
    # no two critical sections overlap
    for (_, _s1, e1), (_, s2, _e2) in zip(intervals, intervals[1:], strict=False):
        assert e1 <= s2
    assert env.now == 12.0


def test_utilization_accounting():
    env = Environment()
    res = Resource(env, capacity=2)

    def worker():
        grant = yield res.acquire()
        yield env.timeout(10.0)
        res.release(grant)

    env.process(worker())
    env.run()
    # 1 unit busy for 10us out of 2 units * 10us
    assert res.utilization() == pytest.approx(0.5)


def test_queue_length_visible():
    env = Environment()
    res = Resource(env, capacity=1)
    res.grab()
    res.acquire()
    res.acquire()
    assert res.queue_length == 2


# ---------------------------------------------------------------------------
# RNG / jitter
# ---------------------------------------------------------------------------


def test_rng_streams_are_reproducible():
    a = RngHub(42).stream("syscall").random(5)
    b = RngHub(42).stream("syscall").random(5)
    assert np.array_equal(a, b)


def test_rng_streams_are_independent_by_name():
    hub = RngHub(42)
    a = hub.stream("syscall").random(5)
    b = hub.stream("kernel").random(5)
    assert not np.array_equal(a, b)


def test_rng_fork_changes_seed():
    hub = RngHub(42)
    a = hub.fork("rep", 0).stream("x").random(3)
    b = hub.fork("rep", 1).stream("x").random(3)
    assert not np.array_equal(a, b)


def test_jitter_none_is_identity():
    j = Jitter.none()
    for v in (0.0, 1.0, 17.5, 1e6):
        assert j.apply(v) == v


def test_jitter_sigma_produces_spread_around_one():
    rng = np.random.default_rng(1)
    j = Jitter(rng, sigma=0.05)
    vals = np.array([j.apply(100.0) for _ in range(2000)])
    assert 95.0 < vals.mean() < 106.0
    assert vals.std() > 1.0


def test_jitter_tail_adds_rare_large_stalls():
    rng = np.random.default_rng(2)
    j = Jitter(rng, sigma=0.0, tail_p=0.01, tail_scale_us=1e4)
    vals = np.array([j.apply(1.0) for _ in range(5000)])
    n_stalls = int((vals > 100.0).sum())
    assert 10 <= n_stalls <= 120  # ~1% of 5000, loose bounds


def test_jitter_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        Jitter(rng, sigma=-1.0)
    with pytest.raises(ValueError):
        Jitter(rng, tail_p=2.0)


def _scalar_jitter(rng, latencies, sigma, tail_p=0.0, tail_scale_us=0.0, scale=1.0):
    """The one-draw-per-call reference loop of ``Jitter.apply``."""
    out = []
    for lat in latencies:
        v = lat * scale
        v *= float(np.exp(rng.normal(0.0, sigma)))
        if tail_p > 0.0 and rng.random() < tail_p:
            v += tail_scale_us * float(rng.exponential(1.0))
        out.append(v)
    return out


def test_tail_free_jitter_blocks_match_scalar_draws():
    from repro.sim.rng import _BLOCK

    lats = np.random.default_rng(3).uniform(0.0, 50.0, 3 * _BLOCK + 17).tolist()
    for seed, sigma, scale in ((0, 0.05, 1.0), (9, 0.2, 1.07), (41, 1e-3, 0.93)):
        expected = _scalar_jitter(np.random.default_rng(seed), lats, sigma, scale=scale)
        j = Jitter(np.random.default_rng(seed), sigma=sigma, scale=scale)
        assert [j.apply(v) for v in lats] == expected  # 3 block boundaries


def test_tail_jitter_keeps_scalar_draws():
    lats = [float(i % 13) for i in range(3000)]
    kw = dict(sigma=0.1, tail_p=0.05, tail_scale_us=40.0, scale=1.2)
    expected = _scalar_jitter(np.random.default_rng(4), lats, **kw)
    j = Jitter(np.random.default_rng(4), **kw)
    assert [j.apply(v) for v in lats] == expected
