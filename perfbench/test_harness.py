"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench -q``
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from cases import Op, PassResult  # noqa: E402
from run import check_pass  # noqa: E402
from spans import Patcher, Tracer, traced_function, traced_generator  # noqa: E402

from repro.sim import Environment, Interrupt, Mutex, SimulationError  # noqa: E402


def ticking_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_span_minus_children():
    tracer = Tracer(clock=ticking_clock([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 10.0, 11.0]))
    tracer.enter("outer")      # t=0
    tracer.enter("inner")      # t=1
    tracer.enter("leaf")       # t=2
    tracer.exit()              # t=4: leaf 2
    tracer.exit()              # t=5: inner 4, self 2
    tracer.enter("inner")      # t=8
    tracer.exit()              # t=10: inner 2
    assert tracer.depth == 1
    tracer.exit()              # t=11: outer 11, children 6, self 5
    assert tracer.self_s == {"leaf": 2.0, "inner": 4.0, "outer": 5.0}
    assert tracer.root_s == 11.0
    assert sum(tracer.self_s.values()) == tracer.root_s


def test_same_layer_call_opens_no_span():
    tracer = Tracer(clock=ticking_clock([0.0, 1.0, 3.0, 6.0]))
    inner = traced_function(tracer, "a", lambda: tracer.depth, counter="a.calls")
    other = traced_function(tracer, "b", lambda: tracer.depth)
    outer = traced_function(tracer, "a", lambda: (inner(), other()))
    assert outer() == (1, 2)   # inner ran inside outer's span, b in its own
    assert tracer.calls["a.calls"] == 1
    assert tracer.self_s == {"a": 4.0, "b": 2.0}
    assert tracer.root_s == 6.0


def test_generator_resumes_are_timed_and_counted_once():
    tracer = Tracer()

    def gen(n):
        for i in range(n):
            yield i
        return "done"

    wrapped = traced_function(tracer, "g", gen, counter="g.calls")
    it = wrapped(3)
    assert list(it) == [0, 1, 2]
    assert tracer.calls["g.calls"] == 1
    assert set(tracer.self_s) == {"g"}
    assert tracer.depth == 0


def test_generator_wrapper_passes_send_throw_close():
    log = []

    def inner():
        try:
            got = yield "first"
            log.append(("sent", got))
            try:
                yield "second"
            except ValueError as exc:
                log.append(("caught", str(exc)))
            yield "third"
        finally:
            log.append("closed")

    tracer = Tracer()
    gen = traced_generator(tracer, "x", inner())
    assert next(gen) == "first"
    assert gen.send(42) == "second"
    assert gen.throw(ValueError("boom")) == "third"
    gen.close()
    assert log == [("sent", 42), ("caught", "boom"), "closed"]
    with pytest.raises(KeyError):
        bad = traced_generator(tracer, "x", inner())
        next(bad)
        bad.throw(KeyError("unhandled"))
    assert tracer.depth == 0


def _simulate():
    """A small run with a lock, an interrupt and a recovered error."""
    env = Environment()
    lock = Mutex(env, "lock")
    log = []

    def worker(tid):
        for i in range(3):
            grant = yield lock.acquire()
            try:
                yield env.charge(1.5 + tid)
            finally:
                lock.release(grant)
            log.append((env.now, tid, i))

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            log.append((env.now, "interrupted", exc.cause))
        yield "not an event"  # the engine raises SimulationError

    def interrupter(target):
        yield env.timeout(5.0)
        target.interrupt("wake")

    procs = [env.process(worker(t), name=f"w{t}") for t in range(2)]
    target = env.process(sleeper(), name="sleeper")
    env.process(interrupter(target), name="interrupter")
    try:
        env.run(env.all_of(procs))
    except SimulationError as exc:
        log.append(("error", str(exc)))
    env.run()
    return log, env.now, env.processed_events


def test_traced_simulation_with_interrupt_is_unchanged():
    plain = _simulate()
    tracer = Tracer()
    with Patcher() as patcher:
        layers.install(tracer, patcher)
        traced = _simulate()
    assert traced == plain
    assert any(entry[1] == "interrupted" for entry in plain[0]
               if isinstance(entry, tuple) and len(entry) == 3)
    assert tracer.self_s["sim"] > 0
    assert tracer.calls["sim.mutex_acquires"] == 6
    assert tracer.depth == 0
    assert _simulate() == plain  # patches are gone


class _Case:
    name = "toy"
    seed0 = 1000
    n_ops = 2


def _pass(digests):
    ops = [Op(key=k, digest=d) for k, d in digests.items()]
    return PassResult(wall_s=1.0, ops=ops, sim_events=1, ledger={})


def test_tampered_digest_counts_as_failed_operation():
    pins = {"toy": {"1000": {"a": "d1", "b": "d2"}}}
    assert check_pass(_Case(), _pass({"a": "d1", "b": "d2"}), pins) == 0
    assert check_pass(_Case(), _pass({"a": "d1", "b": "tampered"}), pins) == 1
    assert check_pass(_Case(), _pass({"a": "d1"}), pins) == 1
    raised = _pass({})
    raised.error = "RuntimeError: boom"
    assert check_pass(_Case(), raised, pins) == 2
