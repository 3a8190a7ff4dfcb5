"""Unit tests for the discrete-event engine (repro.sim.core)."""

import pytest

from repro.sim import (
    AllOf,
    Environment,
    Interrupt,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc())
    assert env.run(p) == 5.0
    assert env.now == 5.0


def test_timeout_value_passthrough():
    env = Environment()

    def proc():
        got = yield env.timeout(1.0, value="hello")
        return got

    assert env.run(env.process(proc())) == "hello"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_zero_delay_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def maker(tag):
        def proc():
            yield env.timeout(0.0)
            order.append(tag)
            return None

        return proc

    for tag in ("a", "b", "c"):
        env.process(maker(tag)())
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_ordering_is_fifo_across_delays():
    env = Environment()
    order = []

    def proc(tag, delay):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc("first", 3.0))
    env.process(proc("second", 3.0))
    env.run()
    assert order == ["first", "second"]


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(2.0)
        return 42

    def parent():
        value = yield env.process(child())
        return value * 2

    assert env.run(env.process(parent())) == 84


def test_nested_processes_accumulate_time():
    env = Environment()

    def leaf():
        yield env.timeout(1.0)

    def mid():
        yield env.process(leaf())
        yield env.process(leaf())

    def root():
        yield env.process(mid())
        yield env.timeout(0.5)

    env.run(env.process(root()))
    assert env.now == pytest.approx(2.5)


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(7.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(7.0, "open")]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    gate = env.event()

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            return f"caught:{exc}"
        return "not reached"

    p = env.process(waiter())
    gate.fail(RuntimeError("boom"))
    assert env.run(p) == "caught:boom"


def test_unhandled_failure_propagates_to_run():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("exploded")

    p = env.process(bad())

    def parent():
        yield p

    with pytest.raises(ValueError, match="exploded"):
        env.run(env.process(parent()))


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 5

    with pytest.raises(SimulationError, match="yielded"):
        env.run(env.process(bad()))


def test_allof_waits_for_all():
    env = Environment()

    def proc():
        t1 = env.timeout(3.0, value="a")
        t2 = env.timeout(5.0, value="b")
        results = yield AllOf(env, [t1, t2])
        return (env.now, sorted(results.values()))

    t, vals = env.run(env.process(proc()))
    assert t == 5.0
    assert vals == ["a", "b"]


def test_allof_empty_fires_immediately():
    env = Environment()

    def proc():
        yield AllOf(env, [])
        return env.now

    assert env.run(env.process(proc())) == 0.0


def test_run_until_time_horizon():
    env = Environment()
    hits = []

    def ticker():
        while True:
            yield env.timeout(1.0)
            hits.append(env.now)

    env.process(ticker())
    env.run(until=3.5)
    assert hits == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_deadlock_detection():
    env = Environment()
    never = env.event()

    def waiter():
        yield never

    p = env.process(waiter())
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(p)


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
            log.append("slept full")
        except Interrupt as i:
            log.append(("interrupted", env.now, i.cause))

    def interrupter(target):
        yield env.timeout(4.0)
        target.interrupt("wake up")

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    assert log == [("interrupted", 4.0, "wake up")]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    p = env.process(quick())
    env.run(p)
    with pytest.raises(SimulationError):
        p.interrupt()


def test_callback_on_already_processed_event_runs_immediately():
    env = Environment()
    t = env.timeout(1.0, value=7)
    env.run()
    seen = []
    t.add_callback(lambda ev: seen.append(ev.value))
    assert seen == [7]


def test_processed_event_count_increases():
    env = Environment()

    def proc():
        for _ in range(10):
            yield env.timeout(1.0)

    env.run(env.process(proc()))
    assert env.processed_events >= 10


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4.0)
    assert env.peek() == 4.0
    env.run()
    assert env.peek() == float("inf")


def test_determinism_two_identical_runs():
    def build():
        env = Environment()
        trace = []

        def worker(tag, period):
            for _ in range(5):
                yield env.timeout(period)
                trace.append((env.now, tag))

        env.process(worker("x", 1.5))
        env.process(worker("y", 2.0))
        env.run()
        return trace

    assert build() == build()
