"""Engine fast path: inline charge fusion (``Environment.fuse``), inline
grants (``Resource.grab``) and lock cycles (``Resource.hold``), event
lifetime, interrupts, and the retained reference scheduler."""

import ast
import contextlib
import random
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from oracles import count_heap_pushes

import repro
from repro.sim import (
    ENGINE_VERSION,
    AllOf,
    Environment,
    Interrupt,
    Mutex,
    Process,
    ReferenceEnvironment,
    Resource,
    SimulationError,
    Timeout,
)

ENGINES = (Environment, ReferenceEnvironment)
#: how a refused charge or grant waits: the modeled code's bare heap
#: entries (``yield us``, ``yield res``) or the public Event API
IDIOMS = ("bare", "event")


def _charge(env, us, idiom="bare"):
    """(generator) The fused-delay idiom of the modeled code."""
    if not env.fuse(us):
        yield us if idiom == "bare" else env.timeout(us)


def _take(res, idiom="bare"):
    """(generator) The inline-grant idiom of the modeled code."""
    return res.grab() or (yield res if idiom == "bare" else res.acquire())


def _cycle(env, res, us, idiom="bare"):
    """(generator) The inline lock-cycle idiom: a unit held for a charge."""
    if not res.hold(us):
        grant = yield from _take(res, idiom)
        try:
            yield from _charge(env, us, idiom)
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
    """An event scheduled mid-chain lands at the charged clock."""
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
    """A zero-µs charge leaves the clock where it is but still counts
    one processed event."""
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
        with count_heap_pushes() as pushes:
            seen.append(env.fuse(2.0))
            seen.append(env.fuse(0.0))
        seen.append((env.now, env.processed_events, env._seq, pushes.total()))

    env.run(env.process(proc()))
    # bootstrap, timeout and 2 fused charges so far; no heap push
    assert seen == [True, True, (3.0, 4, 2, 0)]
    assert env.processed_events == 5  # bootstrap, timeout, 2 fused, the end


def test_back_to_back_fused_charges_round_like_reference():
    """Each fused charge is one addition to the clock, where its timeout
    would pop: ``(0.1 + 0.2) + 0.3``, not ``0.1 + (0.2 + 0.3)``."""
    results = {}
    for cls in ENGINES:
        env = cls()
        seen = []

        def proc():
            yield 0.1
            yield from _charge(env, 0.2)
            yield from _charge(env, 0.3)
            seen.append(env.now)

        env.run(env.process(proc()))
        results[cls] = (seen, env.processed_events)
        if cls is Environment:
            assert env._seq == 3  # the start, the sleep, the end: both fused
    assert results[Environment] == results[ReferenceEnvironment]
    assert results[Environment] == ([0.6000000000000001], 5)


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
        seen.append((env.now, env.processed_events, res.in_use))
        yield env.timeout(0.7)
        for grant in busy:
            res.release(grant)

    env.run(env.process(proc()))
    return seen, env.now, env.processed_events, env._seq


def test_hold_matches_grab_charge_release_with_units_in_use():
    """The hold leaves the clock, the event count and the heap exactly
    where grab, fused charge and release leave them."""
    held = _cycle_with_units_in_use(True)
    assert held == _cycle_with_units_in_use(False)
    assert held[0] == [True, (4.3, 7, 2)]


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


@pytest.mark.parametrize("case", ["busy", "queued"])
def test_hold_negative_raises_before_the_free_unit_check(case):
    """A refused hold still rejects a negative delay: on a busy unit and
    behind a queued waiter, on both engines, changing nothing."""
    for cls in ENGINES:
        env = cls()
        lock = Mutex(env)
        lock.acquire()
        if case == "queued":
            lock.acquire()
        before = (env.now, env.processed_events, env._seq, lock.in_use,
                  lock.queue_length)
        with pytest.raises(ValueError):
            lock.hold(-1.0)
        assert (env.now, env.processed_events, env._seq, lock.in_use,
                lock.queue_length) == before


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
# event lifetime
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# interrupt + double-interrupt protection
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


def _mixed_workload(env, log, idiom="bare"):
    """Charges, timeouts, a mutex handoff, a condition and an interrupt."""
    lock = Mutex(env)

    def worker(wid):
        for i in range(5):
            yield from _charge(env, 0.5 * (wid + 1), idiom)
            grant = yield from _take(lock, idiom)
            try:
                yield from _charge(env, 1.0, idiom)
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
    for cls in ENGINES:
        for idiom in IDIOMS:
            env = cls()
            log = []
            env.run(_mixed_workload(env, log, idiom))
            logs[cls, idiom] = (log, env.now, env.processed_events)
    assert len(set(map(repr, logs.values()))) == 1, logs


def test_engine_version_exported():
    assert isinstance(ENGINE_VERSION, int) and ENGINE_VERSION >= 2


def test_engine_version_is_4():
    assert ENGINE_VERSION == 4


# ---------------------------------------------------------------------------
# grant fusion: fused vs. reference on resource programs
# ---------------------------------------------------------------------------


def _resource_program(env, seed, idiom="bare"):
    """A seeded random program over Resource capacities 1, 2, 4 and a
    Mutex: exact-time ties, acquires right after same-time timeouts,
    lock cycles (``hold``), also while the worker keeps units of a
    capacity-2 or -4 resource busy, interrupts while waiting in a FIFO,
    and AllOf over acquires.  Charges and grants wait in ``idiom``.
    Returns ``(log, resources, stop)``; ``stop`` is None or an event to
    run until."""
    rnd = random.Random(seed)
    res = [Resource(env, 1, "r1"), Resource(env, 2, "r2"),
           Resource(env, 4, "r4"), Mutex(env, "m")]
    log = []

    def hold(wid, grants):
        roll = rnd.random()
        if roll < 0.4:
            yield from _charge(env, rnd.choice((0.0, 0.5, 1.0)), idiom)
        elif roll < 0.8:
            yield env.timeout(rnd.choice((0.0, 1.0, 2.0)))
        else:
            yield from _cycle(env, rnd.choice(res[1:3]),
                              rnd.choice((0.0, 0.5, 1.0)), idiom)
        log.append((wid, "held", [g.resource.name for g in grants], env.now))

    def worker(wid, steps):
        for step in steps:
            kind = step[0]
            try:
                if kind == "charge":
                    yield from _charge(env, step[1], idiom)
                elif kind == "timeout":
                    yield env.timeout(step[1])
                elif kind in ("acquire", "tie-acquire"):
                    if kind == "tie-acquire":
                        yield env.timeout(0.0)
                    grant = yield from _take(step[1], idiom)
                    log.append((wid, "got", step[1].name, env.now))
                    try:
                        yield from hold(wid, [grant])
                    finally:
                        step[1].release(grant)
                elif kind == "cycle":
                    yield from _cycle(env, step[1], step[2], idiom)
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
    """Both engines, each with bare and Event waits: one outcome."""
    sides = {}
    for cls in ENGINES:
        for idiom in IDIOMS:
            env = cls()
            log, res, stop = _resource_program(env, seed, idiom)
            env.run(stop)
            sides[cls, idiom] = (
                log,
                env.now,
                env.processed_events,
                [(r.in_use, r.queue_length) for r in res],
            )
    assert len(set(map(repr, sides.values()))) == 1, sides


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


def test_resource_programs_interrupt_every_bare_wait(monkeypatch):
    """The differential above interrupts processes in each bare wait: a
    sleep, a grant still queued on the resource and one already pushed."""
    hits = Counter()
    interrupt = Process.interrupt

    def counted(self, cause=None):
        target = self._waiting_on
        if isinstance(target, float):
            hits["sleep"] += 1
        elif isinstance(target, Resource):
            queued = any(isinstance(fn, partial) and fn.func is self._cb
                         for fn, _ in target._waiters)
            hits["queued grant" if queued else "pending grant"] += 1
        interrupt(self, cause)

    monkeypatch.setattr(Process, "interrupt", counted)
    for seed in range(40):
        env = Environment()
        _log, _res, stop = _resource_program(env, seed)
        env.run(stop)
    assert set(hits) == {"sleep", "queued grant", "pending grant"}, hits


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
        results[cls] = (env.now, env.processed_events)
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
# callback chains: a callback run from the event loop may fuse and grab
# ---------------------------------------------------------------------------


def test_callback_fusing_without_reading_the_clock_matches_reference():
    """A bare entry fuses charges and returns without reading the clock;
    the timeout popped next must still see the clock the charges left,
    as on the reference engine, where each charge is its own entry."""
    sides = {}
    for cls in ENGINES:
        env = cls()
        log = []

        def charges(*delays):
            for us in delays:
                if not env.fuse(us):
                    env._schedule_call(lambda: None, us)  # the refused charge

        def logs(_ev):
            log.append(env.now)

        env._schedule_call(partial(charges, 1.0))
        env.timeout(5.0).callbacks.append(logs)
        env.run()
        env._schedule_call(partial(charges, 0.2, 0.3))
        env.timeout(7.0).callbacks.append(logs)
        env.run()
        sides[cls] = (log, env.now, env.processed_events)
    assert sides[Environment] == sides[ReferenceEnvironment]


def test_reference_engine_builds_every_event_fresh(monkeypatch):
    """The reference engine builds every event fresh and processes each
    one it counts: its event total is the run's ``sim_events``."""
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
                  RuntimeConfig.COPY, env_cls=ReferenceEnvironment)
    assert [env.processed_events for env in envs] == [run.sim_events]


def _count_pushes(monkeypatch, workload, config):
    """Run ``workload`` under ``config`` counting heap pushes: returns the
    run, the pushes of each target region and the pushes of the run."""
    from repro.experiments.runner import execute
    from repro.omp.api import OmpThread

    per_region = []
    target = OmpThread.target

    def counted_target(self, *args, **kwargs):
        before = pushes.total()
        rec = yield from target(self, *args, **kwargs)
        per_region.append(pushes.total() - before)
        return rec

    monkeypatch.setattr(OmpThread, "target", counted_target)
    with count_heap_pushes() as pushes:
        run = execute(workload, config)
    return run, per_region, pushes.total()


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


def _drop_a_run_with_a_queued_lock_waiter():
    """Stop a two-process lock run at ``until=50`` with the lock held and
    a waiter queued, and drop it: the holder's generator is garbage that
    only the cyclic collector frees, and its ``finally`` then hands the
    lock over, pushing onto this dead run's heap."""
    env = Environment()
    lock = Mutex(env)

    def user():
        grant = lock.grab() or (yield lock)
        try:
            yield 100.0
        finally:
            lock.release(grant)

    env.process(user())
    env.process(user())
    env.run(until=50.0)
    assert (lock.in_use, lock.queue_length) == (1, 1)


def test_heap_push_count_ignores_a_dropped_run(monkeypatch):
    """The Copy lbm cell's push count holds with another run's garbage
    waiting for the cyclic collector, which runs again mid-count."""
    import gc

    from repro.core import RuntimeConfig
    from repro.omp.api import OmpThread
    from repro.workloads.base import Fidelity
    from repro.workloads.specaccel.lbm import Lbm404

    target = OmpThread.target
    collected = []

    def collecting_target(self, *args, **kwargs):
        if not collected:  # once, inside the counted run
            collected.append(gc.collect())
        return (yield from target(self, *args, **kwargs))

    _drop_a_run_with_a_queued_lock_waiter()
    monkeypatch.setattr(OmpThread, "target", collecting_target)
    _, _, pushes = _count_pushes(
        monkeypatch, Lbm404(Fidelity.TEST), RuntimeConfig.COPY)
    assert collected
    assert pushes == 3630


# ---------------------------------------------------------------------------
# engine fields
# ---------------------------------------------------------------------------

#: the engine's private fields: only ``sim/core.py`` may name them, so
#: fusion and event counting go through ``Environment``'s methods
ENGINE_FIELDS = {"_event_count", "_owed", "_hold", "_queue"}


def test_only_the_engine_touches_its_private_fields():
    root = Path(repro.__file__).parent
    touched = sorted(
        {str(path.relative_to(root))
         for path in root.rglob("*.py")
         for node in ast.walk(ast.parse(path.read_text(), str(path)))
         if isinstance(node, ast.Attribute) and node.attr in ENGINE_FIELDS}
    )
    assert touched == ["sim/core.py"]
