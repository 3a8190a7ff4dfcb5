"""Fused-vs-reference differential of host-thread waits as bare heap entries.

A process whose charge ``fuse`` refused sleeps by yielding the ``float``
delay, and one whose ``grab`` refused waits for a unit by yielding the
``Resource``.  Each wait is one bare heap entry
(``Environment._schedule_call``) that takes one ``seq`` and counts one
processed event where the ``env.timeout(us)`` or ``res.acquire()`` event
it replaces did.  Each program below runs on both engines in both idioms
(bare waits and the public Event API) and compares the log, the clock,
``processed_events`` and the resources' state.  It also counts the
branches the bare waits take, so none of them can silently go dead:

* ``bare sleep``: a refused charge queued as the process's own wake;
* ``grant at once``: ``request`` on a free unit after ``grab`` refused
  on a strict tie (or on the reference engine);
* ``grant by release``: ``release`` handing a unit to a queued process;
* ``interrupted sleep``, ``interrupted queued grant`` and ``interrupted
  pending grant``: an interrupt during each wait, the grant still
  queued on the resource or already pushed to the heap.
"""

import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from oracles import count_heap_pushes

from repro.core import RuntimeConfig
from repro.experiments.runner import execute
from repro.sim import (
    Environment,
    Interrupt,
    Mutex,
    Process,
    ReferenceEnvironment,
    Resource,
)
from repro.workloads.base import Fidelity
from repro.workloads.qmcpack import QmcPackNio

ENGINES = {"fast": Environment, "reference": ReferenceEnvironment}
IDIOMS = ("bare", "event")


def _charge(env, us, idiom):
    if not env.fuse(us):
        yield us if idiom == "bare" else env.timeout(us)


def _take(res, idiom):
    return res.grab() or (yield res if idiom == "bare" else res.acquire())


def _process_of(fn):
    """The process a bare entry's callable resumes, else None."""
    if isinstance(fn, partial):
        fn = fn.func
    return fn.__self__ if getattr(fn, "__func__", None) is Process._resume else None


def _counting(monkeypatch):
    """Patch the bare waits' paths to count the branches they take."""
    branches = Counter()
    schedule_call = Environment._schedule_call

    def counted_schedule_call(self, fn, delay=0.0, seq=0):
        proc = _process_of(fn)
        if proc is not None and isinstance(proc._waiting_on, float):
            branches["bare sleep"] += 1
        schedule_call(self, fn, delay, seq)

    request = Resource.request

    def counted_request(self, then):
        if _process_of(then) is not None:
            free = self._in_use < self.capacity and not self._waiters
            branches["grant at once" if free else "grant queued"] += 1
        request(self, then)

    release = Resource.release

    def counted_release(self, grant):
        if self._waiters and _process_of(self._waiters[0][0]) is not None:
            branches["grant by release"] += 1
        release(self, grant)

    interrupt = Process.interrupt

    def counted_interrupt(self, cause=None):
        target = self._waiting_on
        if isinstance(target, float):
            branches["interrupted sleep"] += 1
        elif isinstance(target, Resource):
            queued = any(_process_of(fn) is self for fn, _ in target._waiters)
            branches["interrupted queued grant" if queued
                     else "interrupted pending grant"] += 1
        interrupt(self, cause)

    monkeypatch.setattr(Environment, "_schedule_call", counted_schedule_call)
    monkeypatch.setattr(Resource, "request", counted_request)
    monkeypatch.setattr(Resource, "release", counted_release)
    monkeypatch.setattr(Process, "interrupt", counted_interrupt)
    return branches


def _sleeps(env, idiom, log):
    """Charges refused by another process's timeouts, ties included."""

    def ticker():
        for _ in range(6):
            yield env.timeout(1.0)

    def sleeper():
        for us in (0.5, 1.0, 0.75, 2.0, 0.0, 1.25):
            yield from _charge(env, us, idiom)
            log.append(("slept", us, env.now, env.processed_events))

    env.process(ticker())
    env.process(sleeper())
    return []


def _tied_grant(env, idiom, log):
    """A free unit ``grab`` refuses because a child starts at ``now``."""
    lock = Mutex(env, "tied")

    def child():
        log.append(("child", env.now, lock.locked))
        yield from _charge(env, 0.5, idiom)

    def proc():
        for _ in range(3):
            env.process(child())
            grant = yield from _take(lock, idiom)
            log.append(("granted", env.now, env.processed_events))
            yield from _charge(env, 1.0, idiom)
            lock.release(grant)

    env.process(proc())
    return [lock]


def _handover(env, idiom, log):
    """Three workers convoy on a mutex and a capacity-2 resource."""
    lock, pair = Mutex(env, "m"), Resource(env, 2, "r2")

    def worker(wid):
        for i in range(4):
            for res in (lock, pair):
                grant = yield from _take(res, idiom)
                yield from _charge(env, 0.5 + 0.25 * wid, idiom)
                res.release(grant)
                log.append((wid, i, res.name, env.now, env.processed_events))

    for wid in range(3):
        env.process(worker(wid))
    return [lock, pair]


def _interrupts(env, idiom, log):
    """An interrupt in each wait: a sleep, a grant queued behind a holder
    and a grant already pushed on a free unit.  The units handed to the
    interrupted grants stay in use, granted to nobody."""
    queued, pending = Mutex(env, "queued"), Mutex(env, "pending")

    def waiter(name, body):
        try:
            yield from body()
        except Interrupt as exc:
            log.append((name, "interrupted", exc.cause, env.now))
            yield from _charge(env, 1.0, idiom)
        log.append((name, "done", env.now, env.processed_events))

    def sleeping():
        yield from _charge(env, 100.0, idiom)

    def holder():
        grant = yield from _take(queued, idiom)
        yield from _charge(env, 10.0, idiom)
        queued.release(grant)
        log.append(("holder", "released", env.now, queued.in_use))

    def queueing():
        yield env.timeout(1.0)
        yield from _take(queued, idiom)

    def tied():
        yield env.timeout(5.0)  # pops before the interrupter's entry at 5
        yield from _take(pending, idiom)

    procs = [env.process(waiter("sleeping", sleeping)), env.process(holder()),
             env.process(waiter("queueing", queueing)),
             env.process(waiter("tied", tied))]

    def interrupter():
        yield env.timeout(2.0)
        procs[0].interrupt("sleep")
        procs[2].interrupt("queue")
        yield env.timeout(3.0)
        procs[3].interrupt("pending")

    env.process(interrupter())
    return [queued, pending]


#: name -> (program, branches the bare idiom takes on the fused engine)
PROGRAMS = {
    "sleeps": (_sleeps, {"bare sleep"}),
    "tied-grant": (_tied_grant, {"grant at once", "bare sleep"}),
    "handover": (_handover, {"grant by release", "bare sleep"}),
    "interrupts": (_interrupts, {"interrupted sleep", "interrupted queued grant",
                                 "interrupted pending grant", "grant at once"}),
}


def _run(monkeypatch, program, engine, idiom):
    branches = _counting(monkeypatch)
    env = ENGINES[engine]()
    log = []
    resources = program(env, idiom, log)
    env.run()
    monkeypatch.undo()
    observed = (log, env.now, env.processed_events,
                [(r.in_use, r.queue_length) for r in resources])
    return observed, branches


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_bare_wait_programs_fused_vs_reference(monkeypatch, name):
    program, expected = PROGRAMS[name]
    sides, hits = {}, {}
    for engine in ENGINES:
        for idiom in IDIOMS:
            sides[engine, idiom], hits[engine, idiom] = _run(
                monkeypatch, program, engine, idiom)
    assert len(set(map(repr, sides.values()))) == 1, sides
    assert sides["fast", "bare"][0], "the program logged nothing"
    for branch in expected:
        assert hits["fast", "bare"][branch] >= 1, (name, branch, hits)
        assert hits["reference", "bare"][branch] >= 1, (name, branch, hits)


def test_interrupted_grants_leave_their_units_in_use(monkeypatch):
    (log, _now, _events, state), _ = _run(monkeypatch, _interrupts, "fast", "bare")
    assert state[0][:2] == (1, 0) and state[1][:2] == (1, 0)
    assert ("holder", "released", 10.0, 1) in log
    assert [entry[:3] for entry in log if entry[1] == "interrupted"] == [
        ("sleeping", "interrupted", "sleep"), ("queueing", "interrupted", "queue"),
        ("tied", "interrupted", "pending")]


def test_yielded_delay_and_resource_resume_like_events():
    """A sleep sends in None and a grant its Grant, as the events did."""
    env = Environment()
    lock = Mutex(env)
    got = []

    def holder():
        grant = yield lock
        got.append((yield 2.5))
        lock.release(grant)

    def other():
        grant = yield lock
        got.append((grant.resource is lock, env.now))
        lock.release(grant)

    env.process(holder())
    env.process(other())
    env.run()
    assert got == [None, (True, 2.5)]


def test_copy_8_thread_cell_pushes_no_runtime_events(monkeypatch):
    """An 8-thread Copy QMCPack S2 TEST cell: the runtime's host threads
    (``core/``, ``hsa/``, ``omp/``) call no ``timeout()`` and no
    ``acquire()``, the workload's polls no ``timeout()``, and the cell
    pushes as many heap entries, and counts as many events, as the
    runtime whose waits were Events."""
    import repro

    layers = tuple(str(Path(repro.__file__).parent / layer)
                   for layer in ("core", "hsa", "omp"))
    callers = Counter()

    def caller_layer():
        path = sys._getframe(2).f_code.co_filename
        return "runtime" if path.startswith(layers) else "other"

    timeout, acquire = Environment.timeout, Resource.acquire

    def counted_timeout(self, delay, value=None):
        callers["timeout", caller_layer()] += 1
        return timeout(self, delay, value)

    def counted_acquire(self):
        callers["acquire", caller_layer()] += 1
        return acquire(self)

    def entry_kind(entry):
        fn = entry[2]  # an event pushes its _process, a bare entry anything else
        if getattr(fn, "__name__", "") == "_process":
            return type(fn.__self__).__name__
        return "bare"

    monkeypatch.setattr(Environment, "timeout", counted_timeout)
    monkeypatch.setattr(Resource, "acquire", counted_acquire)
    with count_heap_pushes(entry_kind) as kinds:
        run = execute(QmcPackNio(size=2, n_threads=8, fidelity=Fidelity.TEST),
                      RuntimeConfig.COPY)
    monkeypatch.undo()
    assert callers["timeout", "runtime"] == callers["acquire", "runtime"] == 0
    # the workload's spin-wait polls are bare sleeps too
    assert callers["timeout", "other"] == kinds["Timeout"] == 0
    assert kinds["Event"] == 0  # no grant events
    assert sum(kinds.values()) == 298_694
    assert run.sim_events == 396_230
