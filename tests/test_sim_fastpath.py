"""Engine fast path: inline charge fusion (``Environment.fuse``), inline
grants (``Resource.grab``) and lock cycles (``Resource.hold``), event
recycling, O(1) interrupt, and the retained reference scheduler."""

import contextlib
import random

import pytest

from repro.sim import (
    ENGINE_VERSION,
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Mutex,
    ReferenceEnvironment,
    Resource,
    SimulationError,
    Timeout,
)

ENGINES = (Environment, ReferenceEnvironment)


def _charge(env, us):
    """(generator) The fused-delay idiom of the modeled code."""
    if not env.fuse(us):
        yield env.timeout(us)


def _take(res):
    """(generator) The inline-grant idiom of the modeled code."""
    return res.grab() or (yield res.acquire())


def _cycle(env, res, us):
    """(generator) The inline lock-cycle idiom: a unit held for a charge."""
    if not res.hold(us):
        grant = yield from _take(res)
        try:
            yield from _charge(env, us)
        finally:
            res.release(grant)


# ---------------------------------------------------------------------------
# charge fusion
# ---------------------------------------------------------------------------


def test_charge_advances_clock_like_timeout():
    env = Environment()

    def proc():
        yield from _charge(env, 3.0)
        yield from _charge(env, 2.0)
        yield from _charge(env, 5.0)
        return env.now

    assert env.run(env.process(proc())) == 10.0
    assert env.now == 10.0


def test_charge_counts_one_event_each():
    """Fused charges preserve processed_events exactly — the accounting
    the fused-vs-reference differential relies on."""
    results = {}
    for cls in (Environment, ReferenceEnvironment):
        env = cls()

        def proc():
            for _ in range(10):
                yield from _charge(env, 1.0)
            yield env.timeout(4.0)

        env.run(env.process(proc()))
        results[cls] = (env.now, env.processed_events)
    assert results[Environment] == results[ReferenceEnvironment]


def test_charge_settles_before_now_read():
    env = Environment()
    seen = []

    def proc():
        yield from _charge(env, 7.0)
        seen.append(env.now)  # must observe the fully advanced clock
        yield from _charge(env, 3.0)

    env.run(env.process(proc()))
    assert seen == [7.0]
    assert env.now == 10.0


def test_charge_settles_before_event_creation():
    """An event scheduled mid-chain lands at the settled time."""
    env = Environment()
    marks = []

    def child():
        marks.append(("child", env.now))
        yield from _charge(env, 1.0)

    def proc():
        yield from _charge(env, 5.0)
        env.process(child())  # spawned at t=5, not t=0
        yield env.timeout(10.0)
        marks.append(("parent", env.now))

    env.run(env.process(proc()))
    assert marks == [("child", 5.0), ("parent", 15.0)]


def test_charge_contended_matches_timeout_interleaving():
    """When another event falls inside the charged window the charge
    degrades to a real timeout: cross-process interleaving is identical
    to the all-timeout schedule, including exact-time ties."""

    def body(env, log, label, use_charge):
        def proc():
            for _ in range(4):
                if use_charge:
                    yield from _charge(env, 2.0)
                else:
                    yield env.timeout(2.0)
                log.append((label, env.now))

        return proc

    def run(use_charge):
        env = Environment()
        log = []

        def main():
            a = env.process(body(env, log, "a", use_charge)())
            b = env.process(body(env, log, "b", use_charge)())
            yield AllOf(env, [a, b])

        env.run(env.process(main()))
        return log

    assert run(True) == run(False)


def test_zero_charges_are_counted():
    """A zero-µs charge raises only the pending count; every settle point
    must still fold it into processed_events."""
    results = {}
    for cls in ENGINES:
        env = cls()

        def proc():
            yield from _charge(env, 0.0)
            yield from _charge(env, 0.0)

        env.process(proc())
        env.run()
        results[cls] = (env.now, env.processed_events)
    assert results[Environment] == results[ReferenceEnvironment] == (0.0, 4)


def test_zero_charge_settles_before_suspend_and_schedule():
    results = {}
    for cls in ENGINES:
        env = cls()
        seen = []

        def proc():
            yield from _charge(env, 0.0)
            seen.append(env.processed_events)
            yield from _charge(env, 0.0)
            yield env.timeout(1.0)
            seen.append(env.processed_events)
            yield from _charge(env, 0.0)
            env.process(iter_none())
            seen.append(env.peek())

        def iter_none():
            return
            yield  # pragma: no cover

        env.process(proc())
        env.run()
        results[cls] = (seen, env.now, env.processed_events)
    assert results[Environment] == results[ReferenceEnvironment]


def test_multi_waiter_event_holds_off_fusion():
    """Two processes wait on one event; the first charges.  The second
    must still run at the event's time, as with a real timeout."""
    results = {}
    for cls in ENGINES:
        env = cls()
        log = []
        ev = env.event()

        def first():
            yield ev
            yield from _charge(env, 5.0)
            grant = yield from _take(lock)
            log.append(("first", env.now))
            lock.release(grant)
            yield env.timeout(100.0)

        def second():
            yield ev
            log.append(("second", env.now))
            grant = yield from _take(lock)
            log.append(("second-locked", env.now))
            lock.release(grant)

        def kick():
            yield env.timeout(1.0)
            ev.succeed()
            yield env.timeout(50.0)

        lock = Mutex(env)
        env.process(first())
        env.process(second())
        env.process(kick())
        env.run()
        results[cls] = (log, env.now, env.processed_events)
    assert results[Environment] == results[ReferenceEnvironment]
    assert results[Environment][0][0] == ("second", 1.0)


def test_multi_waiter_event_holds_off_grant_fusion():
    results = {}
    for cls in ENGINES:
        env = cls()
        log = []
        ev = env.event()
        lock = Mutex(env)

        def first():
            yield ev
            grant = yield from _take(lock)
            log.append("first")
            lock.release(grant)

        def second():
            yield ev
            log.append("second")

        def kick():
            yield env.timeout(1.0)
            ev.succeed()
            yield env.timeout(50.0)

        env.process(first())
        env.process(second())
        env.process(kick())
        env.run()
        results[cls] = (log, env.now, env.processed_events)
    assert results[Environment] == results[ReferenceEnvironment]
    assert results[Environment][0] == ["second", "first"]


def test_charge_negative_raises():
    for cls in ENGINES:
        env = cls()
        with pytest.raises(ValueError):
            env.fuse(-1.0)
        assert (env.now, env.processed_events) == (0.0, 0)


def test_reference_charge_is_plain_timeout():
    """The reference engine refuses every fusion, and ``charge`` (kept for
    callers of the old marker protocol) is a plain timeout on both."""
    for cls in ENGINES:
        t = cls().charge(4.0)
        assert isinstance(t, Timeout) and t.delay == 4.0
    env = ReferenceEnvironment()
    assert env.fuse(4.0) is False
    assert env.fuse(0.0) is False

    def proc():
        yield from _charge(env, 1.0)
        yield from _charge(env, 2.0)

    env.run(env.process(proc()))
    assert env.now == 3.0
    assert env.processed_events == 4  # bootstrap, two timeouts, the end


def test_fuse_accumulates_without_heap_traffic():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(1.0)
        seen.append(env.fuse(2.0))
        seen.append(env.fuse(0.0))
        seen.append((env._pending, env._pending_n, env._seq))
        seen.append(env.now)  # settles
        seen.append((env._pending, env._pending_n))

    env.run(env.process(proc()))
    assert seen == [True, True, (2.0, 2, 2), 3.0, (0.0, 0)]
    assert env.processed_events == 5  # bootstrap, timeout, 2 fused, the end


def test_fuse_refuses_on_a_heap_entry_inside_the_window():
    env = Environment()
    seen = []

    def proc():
        env.timeout(5.0)
        seen.append(env.fuse(4.0))
        seen.append(env.fuse(1.0))  # would end exactly on the entry: a tie
        seen.append(env.fuse(0.5))
        yield env.timeout(1.0)

    env.run(env.process(proc()))
    assert seen == [True, False, True]


def test_fuse_refuses_at_the_numeric_horizon_marker():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.fuse(30.0))
        seen.append(env.fuse(20.0))  # reaches the horizon at 50
        seen.append(env.fuse(19.0))
        yield env.timeout(1.0)

    env.process(proc())
    env.run(until=50.0)
    assert seen == [True, False, True]
    assert env.now == 50.0


def test_fuse_refuses_while_an_event_runs_several_waiters():
    env = Environment()
    ev = env.event()
    seen = []

    def waiter():
        yield ev
        seen.append((env._hold, env.fuse(1.0)))

    env.process(waiter())
    env.process(waiter())
    ev.succeed()
    env.run()
    assert seen == [(1, False), (1, False)]
    assert env._hold == 0


# ---------------------------------------------------------------------------
# inline grants
# ---------------------------------------------------------------------------


def test_grab_takes_a_free_unit_and_counts_one_event():
    env = Environment()
    res = Resource(env, 2)
    seen = []

    def proc():
        yield env.timeout(1.0)
        before = env.processed_events
        g = res.grab()
        seen.append((type(g).__name__, res.in_use, env.processed_events - before))
        res.release(g)

    env.run(env.process(proc()))
    assert seen == [("Grant", 1, 1)]
    assert res.in_use == 0


def test_grab_refuses_on_a_heap_entry_at_now():
    env = Environment()
    lock = Mutex(env)
    seen = []

    def proc():
        env.timeout(0.0)
        seen.append(lock.grab())
        grant = yield lock.acquire()
        seen.append(env.now)
        lock.release(grant)

    env.run(env.process(proc()))
    assert seen == [None, 0.0]


def test_grab_refuses_while_an_event_runs_several_waiters():
    env = Environment()
    lock = Mutex(env)
    ev = env.event()
    seen = []

    def waiter():
        yield ev
        seen.append((env._hold, lock.grab(), lock.in_use))

    env.process(waiter())
    env.process(waiter())
    ev.succeed()
    env.run()
    assert seen == [(1, None, 0), (1, None, 0)]


def test_grab_refuses_with_queued_waiters():
    env = Environment()
    lock = Mutex(env)
    seen = []

    def holder():
        grant = yield from _take(lock)
        yield env.timeout(5.0)
        lock.release(grant)

    def waiter():
        grant = yield from _take(lock)
        seen.append(("waiter", env.now))
        lock.release(grant)

    def prober():
        yield env.timeout(1.0)
        seen.append((lock.queue_length, lock.grab()))

    for body in (holder, waiter, prober):
        env.process(body())
    env.run()
    assert seen == [(1, None), ("waiter", 5.0)]


def test_grab_refuses_at_full_capacity():
    env = Environment()
    lock = Mutex(env)
    seen = []

    def proc():
        grant = yield from _take(lock)
        seen.append(lock.grab())
        lock.release(grant)
        seen.append(lock.grab() is not None)

    env.run(env.process(proc()))
    assert seen == [None, True]


def test_reference_engine_never_grabs():
    env = ReferenceEnvironment()
    lock = Mutex(env)
    seen = []

    def proc():
        yield env.timeout(1.0)
        seen.append(lock.grab())
        grant = yield lock.acquire()
        seen.append(env.processed_events)
        lock.release(grant)

    env.run(env.process(proc()))
    assert seen == [None, 3]


# ---------------------------------------------------------------------------
# inline lock cycles
# ---------------------------------------------------------------------------


def _cycle_with_units_in_use(fused):
    """Two units of four busy since t=1, then one lock cycle at t=3."""
    env = Environment()
    res = Resource(env, 4)
    seen = []

    def proc():
        yield env.timeout(1.0)
        busy = [res.grab(), res.grab()]
        yield env.timeout(2.0)
        if fused:
            seen.append(res.hold(1.3))
        else:
            grant = res.grab()
            seen.append(env.fuse(1.3))
            res.release(grant)
        seen.append((env._pending_n, res.in_use))
        yield env.timeout(0.7)
        for grant in busy:
            res.release(grant)

    env.run(env.process(proc()))
    return (seen, env.now, env.processed_events, env._seq,
            res._busy_time, res._last_change, res.utilization())


def test_hold_matches_grab_charge_release_with_units_in_use():
    """The hold leaves the clock, the event count and the occupancy
    integral exactly where grab, fused charge and release leave them."""
    held = _cycle_with_units_in_use(True)
    assert held == _cycle_with_units_in_use(False)
    assert held[0] == [True, (0, 2)]


def test_hold_refuses_on_a_heap_entry_inside_the_window():
    env = Environment()
    lock = Mutex(env)
    seen = []

    def proc():
        env.timeout(5.0)
        seen.append(lock.hold(6.0))
        seen.append(lock.hold(5.0))  # would end exactly on the entry: a tie
        seen.append((env.now, env.processed_events, lock.in_use))
        seen.append(lock.hold(4.0))
        seen.append((env.now, env.processed_events, lock.in_use))
        yield env.timeout(1.0)

    env.run(env.process(proc()))
    assert seen == [False, False, (0.0, 1, 0), True, (4.0, 3, 0)]


def test_hold_refuses_at_the_numeric_horizon_marker():
    env = Environment()
    lock = Mutex(env)
    seen = []

    def proc():
        seen.append(lock.hold(30.0))
        seen.append(lock.hold(20.0))  # reaches the horizon at 50
        seen.append(lock.hold(19.0))
        yield env.timeout(1.0)

    env.process(proc())
    env.run(until=50.0)
    assert seen == [True, False, True]
    assert env.now == 50.0


def test_hold_refuses_with_queued_waiters():
    env = Environment()
    lock = Mutex(env)
    seen = []

    def holder():
        grant = yield from _take(lock)
        yield env.timeout(5.0)
        lock.release(grant)

    def waiter():
        grant = yield from _take(lock)
        seen.append(("waiter", env.now))
        lock.release(grant)

    def prober():
        yield env.timeout(1.0)
        seen.append((lock.queue_length, lock.hold(0.0), env.processed_events))

    for body in (holder, waiter, prober):
        env.process(body())
    env.run()
    assert seen == [(1, False, 5), ("waiter", 5.0)]


def test_hold_refuses_at_full_capacity():
    env = Environment()
    res = Resource(env, 2)
    seen = []

    def proc():
        grants = [(yield from _take(res)), (yield from _take(res))]
        seen.append((res.hold(1.0), env.now))
        for grant in grants:
            res.release(grant)
        seen.append((res.hold(1.0), env.now))

    env.run(env.process(proc()))
    assert seen == [(False, 0.0), (True, 1.0)]


def test_hold_refuses_while_an_event_runs_several_waiters():
    env = Environment()
    lock = Mutex(env)
    ev = env.event()
    seen = []

    def waiter():
        yield ev
        seen.append((env._hold, lock.hold(1.0), lock.in_use))

    env.process(waiter())
    env.process(waiter())
    ev.succeed()
    env.run()
    assert seen == [(1, False, 0), (1, False, 0)]
    assert env.now == 0.0


def test_hold_negative_raises():
    for cls in ENGINES:
        env = cls()
        lock = Mutex(env)
        with pytest.raises(ValueError):
            lock.hold(-1.0)
        assert (env.now, env.processed_events, lock.in_use) == (0.0, 0, 0)


def test_reference_engine_never_holds():
    env = ReferenceEnvironment()
    lock = Mutex(env)
    seen = [lock.hold(0.0)]

    def proc():
        yield env.timeout(1.0)
        seen.append(lock.hold(1.0))
        yield from _cycle(env, lock, 1.0)
        seen.append((env.now, env.processed_events))

    env.run(env.process(proc()))
    assert seen == [False, False, (2.0, 4)]


# ---------------------------------------------------------------------------
# event recycling
# ---------------------------------------------------------------------------


def test_timeouts_are_recycled_when_unreferenced():
    env = Environment()

    def proc():
        for _ in range(50):
            yield env.timeout(1.0)

    env.run(env.process(proc()))
    assert len(env._timeout_pool) >= 1
    # pooled objects are marked recycled and unusable
    stale = env._timeout_pool[-1]
    with pytest.raises(SimulationError):
        stale.succeed()
    with pytest.raises(SimulationError):
        _ = stale.value


def test_user_held_timeout_is_never_recycled():
    env = Environment()
    held = []

    def proc():
        t = env.timeout(2.0, value="payload")
        held.append(t)
        yield t

    env.run(env.process(proc()))
    assert held[0].processed
    assert held[0].value == "payload"
    # post-run callback on the held, processed event still fires
    fired = []
    held[0].add_callback(lambda ev: fired.append(ev.value))
    assert fired == ["payload"]


def test_yielding_recycled_event_raises():
    env = Environment()

    def warmup():
        yield env.timeout(1.0)

    env.run(env.process(warmup()))
    assert env._timeout_pool
    stale = env._timeout_pool[-1]

    def proc():
        yield stale

    with pytest.raises(SimulationError, match="recycled"):
        env.run(env.process(proc()))


def test_recycled_timeout_reuse_is_clean():
    """A pooled Timeout reinitialized through env.timeout behaves like a
    fresh one (state, value, delay, scheduling)."""
    env = Environment()

    def phase1():
        for _ in range(5):
            yield env.timeout(1.0)

    env.run(env.process(phase1()))
    pooled = set(id(t) for t in env._timeout_pool)
    got = []

    def phase2():
        t = env.timeout(3.0)
        got.append((id(t) in pooled, t.delay))
        start = env.now
        v = yield t
        got.append((env.now - start, v))

    env.run(env.process(phase2()))
    assert got[0] == (True, 3.0)
    assert got[1] == (3.0, None)


# ---------------------------------------------------------------------------
# O(1) interrupt + double-interrupt protection
# ---------------------------------------------------------------------------


def test_interrupt_detaches_via_tombstone():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            log.append(exc.cause)
            yield env.timeout(1.0)

    def attacker(p):
        yield env.timeout(5.0)
        p.interrupt("bang")

    p = env.process(victim())
    env.run(env.process(attacker(p)))
    env.run(p)
    assert log == ["bang"]
    assert env.now == 6.0
    env.run()  # the tombstoned timeout still pops harmlessly at t=100
    assert env.now == 100.0


def test_double_interrupt_before_delivery_raises():
    env = Environment()

    def victim():
        with contextlib.suppress(Interrupt):
            yield env.timeout(100.0)

    def attacker(p):
        yield env.timeout(1.0)
        p.interrupt("first")
        with pytest.raises(SimulationError, match="queued interrupt"):
            p.interrupt("second")

    p = env.process(victim())
    env.run(env.process(attacker(p)))


def test_reinterrupt_after_delivery_is_allowed():
    env = Environment()
    causes = []

    def victim():
        for _ in range(2):
            try:
                yield env.timeout(100.0)
            except Interrupt as exc:
                causes.append(exc.cause)

    def attacker(p):
        yield env.timeout(1.0)
        p.interrupt("one")
        yield env.timeout(1.0)  # first interrupt delivered in between
        p.interrupt("two")

    p = env.process(victim())
    env.run(env.process(attacker(p)))
    env.run(p)
    assert causes == ["one", "two"]


def test_interrupt_while_waiting_on_allof():
    env = Environment()
    log = []

    def victim():
        try:
            yield AllOf(env, [env.timeout(50.0), env.timeout(80.0)])
            log.append("completed")
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, env.now))

    def attacker(p):
        yield env.timeout(10.0)
        p.interrupt("allof")

    p = env.process(victim())
    env.run(env.process(attacker(p)))
    env.run(p)
    assert log == [("interrupted", "allof", 10.0)]


def test_interrupt_while_waiting_on_anyof():
    env = Environment()
    log = []

    def victim():
        try:
            yield AnyOf(env, [env.timeout(50.0), env.timeout(80.0)])
            log.append("completed")
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, env.now))

    def attacker(p):
        yield env.timeout(10.0)
        p.interrupt("anyof")

    p = env.process(victim())
    env.run(env.process(attacker(p)))
    env.run(p)
    # the interrupted wait must not fire again when the timeouts complete
    env.run(until=200.0)
    assert log == [("interrupted", "anyof", 10.0)]


# ---------------------------------------------------------------------------
# run(until=...) edge cases
# ---------------------------------------------------------------------------


def test_run_until_number_landing_on_event_timestamp():
    """A horizon equal to a scheduled event's time processes that event
    and leaves the clock exactly there."""
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(10.0)
        fired.append(env.now)
        yield env.timeout(10.0)
        fired.append(env.now)

    env.process(proc())
    env.run(until=10.0)
    assert fired == [10.0]
    assert env.now == 10.0
    env.run(until=20.0)
    assert fired == [10.0, 20.0]
    assert env.now == 20.0


def test_run_until_number_settles_pending_charges():
    env = Environment()

    def proc():
        yield from _charge(env, 3.0)
        yield env.timeout(100.0)

    env.process(proc())
    env.run(until=50.0)
    assert env.now == 50.0


def _charge_across_horizon(env, log):
    def proc():
        log.append(("start", env.now))
        yield from _charge(env, 100.0)
        log.append(("after", env.now))

    env.process(proc())


def _charge_chain_onto_horizon(env, log):
    def proc():
        yield from _charge(env, 20.0)
        yield from _charge(env, 30.0)  # ends exactly on the horizon
        log.append(("on", env.now, env.peek()))
        yield from _charge(env, 10.0)
        log.append(("past", env.now))

    env.process(proc())


@pytest.mark.parametrize("engine", ENGINES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize(
    "shape, at_horizon, at_end",
    [
        (_charge_across_horizon, ([("start", 0.0)], 1),
         ([("start", 0.0), ("after", 100.0)], 3)),
        (_charge_chain_onto_horizon, ([("on", 50.0, float("inf"))], 3),
         ([("on", 50.0, float("inf")), ("past", 60.0)], 5)),
    ],
    ids=["crossing", "chain-ends-on-horizon"],
)
def test_numeric_horizon_stops_fused_charges(engine, shape, at_horizon, at_end):
    """Nothing runs past a numeric horizon, on either engine: a charge
    that reaches or crosses it waits there like a timeout would."""
    env = engine()
    log = []
    shape(env, log)
    env.run(until=50.0)
    assert (log, env.processed_events) == at_horizon
    assert env.now == 50.0
    env.run(until=200.0)
    assert (log, env.processed_events) == at_end
    assert env.now == 200.0


def test_mid_run_processed_events_match_reference():
    sides = {}
    for cls in ENGINES:
        env = cls()
        lock = Mutex(env)
        seen = []

        def proc():
            yield env.timeout(1.0)
            seen.append(env.processed_events)
            yield env.timeout(1.0)
            seen.append(env.processed_events)
            grant = yield from _take(lock)
            seen.append(env.processed_events)
            yield from _charge(env, 1.0)
            seen.append(env.processed_events)
            lock.release(grant)

        env.run(env.process(proc()))
        sides[cls] = (seen, env.processed_events)
    assert sides[Environment] == sides[ReferenceEnvironment] == ([2, 3, 4, 5], 6)


@pytest.mark.parametrize("grab", [False, True], ids=["fuse", "grab"])
def test_waiter_of_the_stop_event_does_not_fuse_past_the_run(grab):
    """A process waiting on run()'s stop event resumes while that event is
    processed; it must not fuse a charge or a grant past the end of the
    run (the reference engine leaves both as pending heap events)."""
    sides = {}
    for cls in ENGINES:
        env = cls()
        lock = Mutex(env)

        def target():
            yield env.timeout(1.0)

        p = env.process(target())

        def waiter():
            yield p
            if grab:
                yield from _take(lock)
            yield from _charge(env, 5.0)

        env.process(waiter())
        env.run(p)
        sides[cls] = (env.now, env.processed_events)
    assert sides[Environment] == sides[ReferenceEnvironment] == (1.0, 4)


def test_stop_process_nobody_waits_on_still_raises_out_of_run():
    """The stop mark is not a waiter: an unwaited failing stop process
    raises straight out of run() on both engines, before any other
    event at the same time runs."""
    for cls in ENGINES:
        env = cls()
        log = []

        def boom():
            yield env.timeout(1.0)
            raise ValueError("boom")

        def bystander():
            yield env.timeout(1.0)
            log.append(env.now)

        p = env.process(boom())
        env.process(bystander())
        with pytest.raises(ValueError, match="boom"):
            env.run(p)
        assert log == [], cls.__name__


# ---------------------------------------------------------------------------
# fused engine vs. reference engine equivalence
# ---------------------------------------------------------------------------


def _mixed_workload(env, log):
    """Charges, timeouts, a mutex handoff, a condition and an interrupt."""
    lock = Mutex(env)

    def worker(wid):
        for i in range(5):
            yield from _charge(env, 0.5 * (wid + 1))
            grant = yield from _take(lock)
            try:
                yield from _charge(env, 1.0)
            finally:
                lock.release(grant)
            log.append((wid, i, env.now))
        return wid

    def interruptee():
        try:
            yield env.timeout(1000.0)
        except Interrupt:
            log.append(("intr", env.now))

    def main():
        procs = [env.process(worker(w)) for w in range(3)]
        victim = env.process(interruptee())
        yield env.timeout(2.0)
        victim.interrupt()
        got = yield AllOf(env, procs)
        log.append(("done", env.now, sorted(got.values())))

    return env.process(main())


def test_fused_and_reference_engines_bit_identical():
    logs = {}
    for cls in (Environment, ReferenceEnvironment):
        env = cls()
        log = []
        env.run(_mixed_workload(env, log))
        logs[cls] = (log, env.now, env.processed_events)
    assert logs[Environment] == logs[ReferenceEnvironment]


def test_engine_version_exported():
    assert isinstance(ENGINE_VERSION, int) and ENGINE_VERSION >= 2


def test_engine_version_is_3():
    assert ENGINE_VERSION == 3


def test_apusystem_rejects_unknown_engine():
    from repro.core.system import ApuSystem

    with pytest.raises(ValueError, match="engine"):
        ApuSystem(engine="warp9")


# ---------------------------------------------------------------------------
# grant fusion: fused vs. reference on resource programs
# ---------------------------------------------------------------------------


def _resource_program(env, seed):
    """A seeded random program over Resource capacities 1, 2, 4 and a
    Mutex: exact-time ties, acquires right after same-time timeouts,
    lock cycles (``hold``), also while the worker keeps units of a
    capacity-2 or -4 resource busy, interrupts while waiting in a FIFO,
    and AllOf over acquires.
    Returns ``(log, resources, stop)``; ``stop`` is None or an event to
    run until."""
    rnd = random.Random(seed)
    res = [Resource(env, 1, "r1"), Resource(env, 2, "r2"),
           Resource(env, 4, "r4"), Mutex(env, "m")]
    log = []

    def hold(wid, grants):
        roll = rnd.random()
        if roll < 0.4:
            yield from _charge(env, rnd.choice((0.0, 0.5, 1.0)))
        elif roll < 0.8:
            yield env.timeout(rnd.choice((0.0, 1.0, 2.0)))
        else:
            yield from _cycle(env, rnd.choice(res[1:3]),
                              rnd.choice((0.0, 0.5, 1.0)))
        log.append((wid, "held", [g.resource.name for g in grants], env.now))

    def worker(wid, steps):
        for step in steps:
            kind = step[0]
            try:
                if kind == "charge":
                    yield from _charge(env, step[1])
                elif kind == "timeout":
                    yield env.timeout(step[1])
                elif kind in ("acquire", "tie-acquire"):
                    if kind == "tie-acquire":
                        yield env.timeout(0.0)
                    grant = yield from _take(step[1])
                    log.append((wid, "got", step[1].name, env.now))
                    try:
                        yield from hold(wid, [grant])
                    finally:
                        step[1].release(grant)
                elif kind == "cycle":
                    yield from _cycle(env, step[1], step[2])
                    log.append((wid, "cycled", step[1].name, env.now))
                elif kind == "allof":
                    a, b = step[1], step[2]
                    got = yield AllOf(env, [a.acquire(), b.acquire()])
                    grants = list(got.values())
                    log.append((wid, "all", sorted(g.resource.name for g in grants),
                                env.now))
                    try:
                        yield from hold(wid, grants)
                    finally:
                        for g in grants:
                            g.resource.release(g)
                log.append((wid, kind, env.now))
            except Interrupt as exc:
                log.append((wid, "intr", exc.cause, env.now))
        return wid

    def program(wid):
        steps = []
        for _ in range(rnd.randint(3, 8)):
            roll = rnd.random()
            if roll < 0.15:
                steps.append(("charge", rnd.choice((0.0, 0.5, 1.0, 2.0))))
            elif roll < 0.3:
                steps.append(("timeout", rnd.choice((0.0, 1.0, 2.0))))
            elif roll < 0.5:
                steps.append(("acquire", rnd.choice(res)))
            elif roll < 0.65:
                steps.append(("tie-acquire", rnd.choice(res)))
            elif roll < 0.8:
                steps.append(("cycle", rnd.choice(res),
                              rnd.choice((0.0, 0.5, 1.0, 2.0))))
            else:
                a, b = rnd.sample(res, 2)
                steps.append(("allof", a, b))
        return steps

    workers = [env.process(worker(w, program(w)), name=f"w{w}")
               for w in range(rnd.randint(3, 6))]

    def interrupter():
        for i in range(rnd.randint(0, 4)):
            yield env.timeout(rnd.choice((0.0, 0.5, 1.0, 1.5, 3.0)))
            victim = rnd.choice(workers)
            waiting = [r.name for r in res if r.queue_length]
            if victim.is_alive:
                try:
                    victim.interrupt(i)
                    log.append(("interrupt", victim.name, waiting, env.now))
                except SimulationError:
                    log.append(("double", victim.name, env.now))

    env.process(interrupter())
    stop = env.timeout(10_000.0) if seed % 2 else None
    return log, res, stop


@pytest.mark.parametrize("seed", range(40))
def test_resource_programs_fused_vs_reference(seed):
    sides = {}
    for cls in ENGINES:
        env = cls()
        log, res, stop = _resource_program(env, seed)
        env.run(stop)
        sides[cls] = (
            log,
            env.now,
            env.processed_events,
            [r.utilization() for r in res],
            [(r.in_use, r.queue_length) for r in res],
        )
    assert sides[Environment] == sides[ReferenceEnvironment]


def test_resource_programs_take_and_refuse_holds(monkeypatch):
    """The differential above exercises both sides of ``hold`` on the
    fused engine."""
    outcomes = {True: 0, False: 0}
    hold = Resource.hold

    def counted(self, delay):
        ok = hold(self, delay)
        outcomes[ok] += 1
        return ok

    monkeypatch.setattr(Resource, "hold", counted)
    for seed in range(40):
        env = Environment()
        _log, _res, stop = _resource_program(env, seed)
        env.run(stop)
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_uncontended_grants_stay_off_the_heap():
    """A lone process cycling a free mutex schedules only its bootstrap
    and its terminal event, yet counts one event per grant."""
    results = {}
    for cls in ENGINES:
        env = cls()
        lock = Mutex(env)

        def proc():
            for _ in range(50):
                grant = yield from _take(lock)
                yield from _charge(env, 1.0)
                lock.release(grant)

        env.run(env.process(proc()))
        results[cls] = (env.now, env.processed_events, lock.utilization())
        if cls is Environment:
            assert env._seq == 2
    assert results[Environment] == results[ReferenceEnvironment]


def _hold_across_yield(env, log):
    lock = Mutex(env)

    def proc():
        ev = lock.acquire()
        yield env.timeout(1.0)
        grant = yield ev
        log.append(("timeout-first", env.now))
        lock.release(grant)
        ev = lock.acquire()
        yield from _charge(env, 2.0)
        grant = yield ev
        log.append(("charge-first", env.now, ev.processed))
        lock.release(grant)

    return env.process(proc())


def _allof_acquires(env, log):
    res = Resource(env, 2)

    def proc():
        a, b = res.acquire(), res.acquire()
        got = yield AllOf(env, [a, b])
        log.append(("both", env.now, len(got)))
        for g in got.values():
            res.release(g)

    return env.process(proc())


def _peek_and_spawn(env, log):
    lock = Mutex(env)

    def child():
        log.append(("child", env.now, lock.locked))
        yield from _charge(env, 0.0)

    def proc():
        ev = lock.acquire()
        log.append(("peek", env.peek()))
        env.process(child())
        grant = yield ev
        log.append(("granted", env.now))
        lock.release(grant)

    return env.process(proc())


def _allof_then_spawn(env, log):
    lock = Mutex(env)

    def child():
        yield env.timeout(0.0)
        log.append(("child", env.now))

    def proc():
        cond = AllOf(env, [lock.acquire()])
        env.process(child())
        got = yield cond
        log.append(("proc", env.now))
        for g in got.values():
            lock.release(g)

    return env.process(proc())


def _callback_then_charge(env, log):
    lock = Mutex(env)

    def proc():
        ev = lock.acquire()
        ev.add_callback(lambda _e: log.append(("grant-cb", env.now)))
        yield from _charge(env, 2.0)
        grant = yield ev
        log.append(("resumed", env.now))
        lock.release(grant)

    return env.process(proc())


def _acquire_outside_process(env, log):
    lock = Mutex(env)
    ev = lock.acquire()  # top-level: no trampoline to consume it
    trigger = env.event()

    def on_trigger(_e):
        late = lock.acquire()  # the lock is busy: queued
        free = Resource(env, 1).acquire()
        free.add_callback(lambda _e: log.append(("cb-grant", env.now)))
        log.append(("cb", late.triggered, free.triggered))

    trigger.add_callback(on_trigger)

    def proc():
        grant = yield ev
        log.append(("top", env.now))
        yield env.timeout(1.0)
        lock.release(grant)
        trigger.succeed()
        yield env.timeout(1.0)
        log.append(("after-cb", lock.locked, env.now))

    return env.process(proc())


def test_top_level_grant_before_numeric_horizon():
    sides = {}
    for cls in ENGINES:
        env = cls()
        lock = Mutex(env)
        ev = lock.acquire()
        env.run(until=5.0)
        sides[cls] = (env.now, env.processed_events, ev.processed)
    assert sides[Environment] == sides[ReferenceEnvironment] == (5.0, 1, True)


@pytest.mark.parametrize(
    "shape", [_hold_across_yield, _allof_acquires, _peek_and_spawn,
              _allof_then_spawn, _callback_then_charge,
              _acquire_outside_process])
def test_grant_shapes_fused_vs_reference(shape):
    sides = {}
    for cls in ENGINES:
        env = cls()
        log = []
        shape(env, log)
        env.run()
        sides[cls] = (log, env.now, env.processed_events)
    assert sides[Environment] == sides[ReferenceEnvironment]


# ---------------------------------------------------------------------------
# callback chains: a callback run from the event loop may fuse and grab,
# but must settle before it returns — the loop assigns the next event's
# time without settling
# ---------------------------------------------------------------------------


@pytest.fixture
def settled_on_every_pop(monkeypatch):
    """Check the clock is settled at every pop: an event's ``_process`` and
    every bare entry queued through ``Environment._schedule_call``."""
    process = Event._process

    def checked(self):
        assert self.env._pending_n == 0, (
            f"{type(self).__name__} popped with fused charges unsettled")
        process(self)

    schedule_call = Environment._schedule_call

    def checked_schedule_call(self, fn, delay=0.0, seq=0):
        def call():
            assert self._pending_n == 0, (
                f"bare entry {fn!r} popped with fused charges unsettled")
            fn()

        schedule_call(self, call, delay, seq)

    monkeypatch.setattr(Event, "_process", checked)
    monkeypatch.setattr(Environment, "_schedule_call", checked_schedule_call)


@pytest.mark.parametrize("config", ["COPY", "IMPLICIT_ZERO_COPY", "EAGER_MAPS"])
def test_runtime_callbacks_settle_before_returning(settled_on_every_pop, config):
    from repro.core import RuntimeConfig
    from repro.experiments.runner import execute
    from repro.workloads.base import Fidelity
    from repro.workloads.qmcpack import QmcPackNio

    run = execute(QmcPackNio(size=2, n_threads=2, fidelity=Fidelity.TEST),
                  RuntimeConfig[config])
    assert run.sim_events > 0


def test_callback_fusing_without_settling_fails_loudly(settled_on_every_pop):
    env = Environment()

    def settles():
        assert env.fuse(1.0)
        assert env.now == 1.0  # reading the clock settles

    def leaves_charge_pending():
        assert env.fuse(1.0)

    env._schedule_call(settles)
    env.timeout(5.0)
    env.run()
    env._schedule_call(leaves_charge_pending)
    env.timeout(5.0)
    with pytest.raises(AssertionError, match="unsettled"):
        env.run()


def test_reference_engine_builds_every_event_fresh(monkeypatch):
    """The reference engine inherits the pool-aware ``timeout``; its
    ``step`` never fills the free list, so it always builds fresh
    timeouts and the oracle recycles nothing."""
    from repro.core import RuntimeConfig
    from repro.experiments.runner import execute
    from repro.workloads.base import Fidelity
    from repro.workloads.qmcpack import QmcPackNio

    envs = []
    init = ReferenceEnvironment.__init__

    def tracking_init(self, *args):
        init(self, *args)
        envs.append(self)

    monkeypatch.setattr(ReferenceEnvironment, "__init__", tracking_init)
    run = execute(QmcPackNio(size=2, n_threads=2, fidelity=Fidelity.TEST),
                  RuntimeConfig.COPY, engine="reference")
    assert [env.processed_events for env in envs] == [run.sim_events]
    assert envs[0]._timeout_pool == []


def _count_pushes(monkeypatch, workload, config):
    """Run ``workload`` under ``config`` counting heap pushes: returns the
    run, the pushes of each target region and the pushes of the run."""
    import heapq

    from repro.experiments.runner import execute
    from repro.omp.api import OmpThread

    pushes = [0]
    push = heapq.heappush

    def counting(queue, item):
        pushes[0] += 1
        push(queue, item)

    per_region = []
    target = OmpThread.target

    def counted_target(self, *args, **kwargs):
        before = pushes[0]
        rec = yield from target(self, *args, **kwargs)
        per_region.append(pushes[0] - before)
        return rec

    monkeypatch.setattr(heapq, "heappush", counting)
    monkeypatch.setattr(OmpThread, "target", counted_target)
    run = execute(workload, config)
    return run, per_region, pushes[0]


def test_eager_target_region_pushes_no_heap_entries(monkeypatch):
    """A target region of a single-thread Eager cell pushes no heap entry:
    the map cycles hold the device lock inline, the kernel runs in the
    host's frame (``Environment._inline``) and the post-wait charge fuses.
    The event count and HSA rows are those of the runtimes that pushed
    the kernel's bootstrap and completion signal per region, and before
    them a third entry for that charge."""
    from repro.core import RuntimeConfig
    from repro.workloads.base import Fidelity
    from repro.workloads.specaccel.stencil import Stencil403

    run, per_region, _ = _count_pushes(
        monkeypatch, Stencil403(Fidelity.TEST), RuntimeConfig.EAGER_MAPS)
    assert per_region == [0] * 41
    assert run.sim_events == 912
    assert run.hsa_trace.as_rows() == [
        ("signal_wait_scacquire", 42, 1000504.3698057143, 23821.53261442177),
        ("svm_attributes_set", 124, 54226.07999999987, 437.30709677419253),
        ("memory_pool_allocate", 19, 7090.0, 373.1578947368421),
        ("memory_async_copy", 3, 118.60251428571429, 39.53417142857143),
    ]


def test_usm_lbm_target_region_pushes_no_heap_entries(monkeypatch):
    """The same for every target region of a single-thread USM lbm cell,
    whose kernels fault on first touch."""
    from repro.core import RuntimeConfig
    from repro.workloads.base import Fidelity
    from repro.workloads.specaccel.lbm import Lbm404

    _, per_region, _ = _count_pushes(
        monkeypatch, Lbm404(Fidelity.TEST), RuntimeConfig.UNIFIED_SHARED_MEMORY)
    assert per_region == [0] * 150


def test_copy_lbm_heap_pushes(monkeypatch):
    """A whole single-thread Copy lbm cell: kernels and d2h copies run
    in the host's frame; the async h2d copies and their handlers still
    push.  The runtime that ran every kernel and copy as a callback chain
    pushed 4,382 entries here, counted the same way."""
    from repro.core import RuntimeConfig
    from repro.workloads.base import Fidelity
    from repro.workloads.specaccel.lbm import Lbm404

    run, _, pushes = _count_pushes(
        monkeypatch, Lbm404(Fidelity.TEST), RuntimeConfig.COPY)
    assert pushes == 3630
    assert run.sim_events == 11807
