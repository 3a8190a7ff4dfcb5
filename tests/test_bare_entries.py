"""Fused-vs-reference differential of the engine's bare heap entries.

Engine-internal wakes are plain callables queued by
``Environment._schedule_call``: process starts, the HSA callback chains
(the steps of a copy's ``_Copy`` and of a kernel's ``_Kernel``), grants
handed to ``Resource.request`` waiters and the no-op of
``Environment._elide``.
Each takes one ``seq`` and counts one processed event where the
:class:`Event` it replaces did.  Each case below runs on both engines and
compares every observable, the detailed HSA rows and the event count
read along the way, and pins the programs' observables to those of the
runtime that ran these chains as events.  It also counts the branches the new paths take, so
none of them can silently go dead:

* ``grant at once``: ``request`` on a free unit (``grab`` refused on a
  strict tie or on the reference engine);
* ``grant by release``: ``release`` handing a unit to a queued
  ``request``;
* ``refused charge``: a chain's timer queued after ``fuse`` refused;
* ``elided no-op``: ``_elide`` queuing the handler's end event;
* ``handler``: an asynchronous copy's handler run off its signal.
"""

import hashlib
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from oracles import run_observables

import repro.sim.core as core
from repro.core import RuntimeConfig
from repro.core.params import CostModel
from repro.driver import Kfd
from repro.experiments.runner import execute
from repro.hsa import HsaRuntime
from repro.hsa.api import _Copy
from repro.memory import GIB, PAGE_2M, PageTable, PhysicalMemory
from repro.omp.api import OmpThread
from repro.sim import Environment, Event, ReferenceEnvironment, Resource, RngHub
from repro.trace.hsa_trace import HsaTrace
from repro.workloads.base import Fidelity
from repro.workloads.qmcpack import QmcPackNio
from repro.workloads.specaccel.lbm import Lbm404

ENGINES = {"fast": Environment, "reference": ReferenceEnvironment}

#: what a bare entry runs -> the branch it stands for
_TIMERS = {"_Chain.done", "_Copy.handled"}


def _target(fn):
    """The plain function a bare entry's callable ends up in."""
    fn = fn.func if isinstance(fn, partial) else fn
    return getattr(fn, "__func__", fn)


def _counting(monkeypatch):
    """Patch the new paths to count the branches they take."""
    branches = Counter()
    schedule_call = Environment._schedule_call

    def counted_schedule_call(self, fn, delay=0.0, seq=0):
        target = _target(fn)
        if target is core._noop:
            branches["elided no-op"] += 1
        elif target.__qualname__ in _TIMERS:
            branches["refused charge"] += 1
        schedule_call(self, fn, delay, seq)

    request = Resource.request

    def counted_request(self, then):
        free = self._in_use < self.capacity and not self._waiters
        branches["grant at once" if free else "request queued"] += 1
        request(self, then)

    release = Resource.release

    def counted_release(self, grant):
        if self._waiters and self._waiters[0][1] is None:
            branches["grant by release"] += 1
        release(self, grant)

    on_signal = _Copy.on_signal

    def counted_on_signal(self, ev):
        branches["handler"] += 1
        on_signal(self, ev)

    monkeypatch.setattr(Environment, "_schedule_call", counted_schedule_call)
    monkeypatch.setattr(Resource, "request", counted_request)
    monkeypatch.setattr(Resource, "release", counted_release)
    monkeypatch.setattr(_Copy, "on_signal", counted_on_signal)
    return branches


def _hsa(env_cls, seed, sigma=0.05):
    env = env_cls()
    cost = replace(CostModel(), jitter_sigma=sigma)
    mem = PhysicalMemory(total_bytes=16 * GIB, frame_bytes=PAGE_2M)
    kfd = Kfd(cost, mem, PageTable(PAGE_2M, "cpu"), PageTable(PAGE_2M, "gpu"),
              xnack_enabled=True)
    trace = HsaTrace(detailed=True)
    return env, HsaRuntime(env, cost, kfd, trace, RngHub(seed)), trace


def _contended_copies(env, hsa, log):
    """Three h2d copies with handlers on two SDMA engines, then a barrier;
    a kernel and a synchronous copy meet the handlers' tails."""

    def host():
        for rnd in range(4):
            sizes = [(1 + rnd) << 20, 3 << 20, (2 + rnd) << 20]
            sigs = [hsa.memory_async_copy(None, None, n, tag=f"h2d{i}", handler=True)
                    for i, n in enumerate(sizes)]
            log.append(("issued", env.now, env.processed_events))
            yield from hsa.signal_wait_scacquire_all(sigs)
            log.append(("barrier", env.now, env.processed_events,
                        [s.completed_at for s in sigs]))
            k = hsa.dispatch_kernel(f"k{rnd}", 5.0 + rnd)
            yield from hsa.copy_and_wait(None, None, 1 << 16, tag="d2h")
            rec = yield from hsa.signal_wait_scacquire(k)
            log.append(("kernel", env.now, env.processed_events, tuple(rec)))

    return env.process(host())


def _lone_copies(env, hsa, log):
    """One h2d copy with a handler at a time, each against a timer that
    lands inside, after or exactly at the end of its charges."""

    def host():
        for delay in (0.0, 1.0, 40.0, 400.0):
            sig = hsa.memory_async_copy(None, None, 1 << 20, tag="h2d", handler=True)
            yield env.timeout(delay)
            log.append(("timer", env.now, env.processed_events, sig.done))
            yield from hsa.signal_wait_scacquire(sig)
            log.append(("waited", env.now, env.processed_events, sig.completed_at))
            yield env.timeout(100.0)

    return env.process(host())


def _two_hosts(env, hsa, log):
    """Two host threads sharing the engines: copies queue behind each
    other's and the handlers run among the other host's timers."""

    def host(tid):
        for i in range(3):
            sigs = [hsa.memory_async_copy(None, None, (1 + tid + i) << 19,
                                          tag=f"t{tid}", handler=True)
                    for _ in range(2)]
            yield env.timeout(2.0 * tid)
            yield from hsa.signal_wait_scacquire_all(sigs)
            log.append((tid, env.now, env.processed_events))

    procs = [env.process(host(tid)) for tid in range(2)]
    return env.all_of(procs)


def _tied_handlers(env, hsa, log):
    """Noiseless: equal copies on both engines complete together, so the
    first handler's end ties with the second handler's timer."""

    def host():
        for n in (1 << 20, 1 << 22):
            sigs = [hsa.memory_async_copy(None, None, n, tag="h2d", handler=True)
                    for _ in range(2)]
            yield from hsa.signal_wait_scacquire_all(sigs)
            log.append(("barrier", env.now, env.processed_events))
            yield env.timeout(50.0)
            log.append(("idle", env.now, env.processed_events))

    return env.process(host())


#: name -> (program, jitter sigma, branches it must take on the fused engine)
PROGRAMS = {
    "contended-copies": (_contended_copies, 0.05,
                         {"grant at once", "grant by release", "refused charge",
                          "handler"}),
    "lone-copies": (_lone_copies, 0.05, {"refused charge", "handler"}),
    "two-hosts": (_two_hosts, 0.05, {"grant at once", "grant by release",
                                     "refused charge", "handler"}),
    "tied-handlers": (_tied_handlers, 0.0, {"grant at once", "refused charge",
                                            "elided no-op", "handler"}),
}


#: sha256 prefix of each program's observables, measured on the runtime
#: that ran these chains as events: the same on both engines
PINS = {
    ("contended-copies", 3): "bb60b84187a12b25",
    ("contended-copies", 17): "51399a3823ee3b79",
    ("lone-copies", 3): "8c452fe240c391d5",
    ("lone-copies", 17): "3ed521901c287b35",
    ("tied-handlers", 3): "bf541b0eccd3c1de",
    ("tied-handlers", 17): "bf541b0eccd3c1de",
    ("two-hosts", 3): "79990b192611c62c",
    ("two-hosts", 17): "b8bdf8d06dd29152",
}


def _run_program(monkeypatch, program, sigma, engine, seed):
    branches = _counting(monkeypatch)
    env, hsa, trace = _hsa(ENGINES[engine], seed, sigma)
    log = []
    env.run(program(env, hsa, log))
    monkeypatch.undo()
    observed = (log, env.now, env.processed_events,
                [(e.name, e.start_us, e.duration_us, e.tag) for e in trace.events],
                trace.as_rows())
    return observed, branches


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_bare_entry_programs_fused_vs_reference(monkeypatch, name, seed):
    program, sigma, expected = PROGRAMS[name]
    fused, branches = _run_program(monkeypatch, program, sigma, "fast", seed)
    reference, ref_branches = _run_program(monkeypatch, program, sigma, "reference",
                                           seed)
    assert fused == reference
    assert hashlib.sha256(repr(fused).encode()).hexdigest()[:16] == PINS[name, seed]
    for branch in expected:
        assert branches[branch] >= 1, (name, branch, dict(branches))
    assert ref_branches["handler"] == branches["handler"] > 0


def _run_workload(monkeypatch, factory, config, engine, seed, noise):
    branches = _counting(monkeypatch)
    events = []
    target = OmpThread.target

    def counted_target(self, *args, **kwargs):
        rec = yield from target(self, *args, **kwargs)
        events.append((self.tid, self.env.processed_events))
        return rec

    monkeypatch.setattr(OmpThread, "target", counted_target)
    workload = factory()
    run = execute(workload, config, seed=seed, noise=noise, env_cls=ENGINES[engine],
                  detailed_trace=True)
    monkeypatch.undo()
    observed = (
        run_observables(run, workload),
        [(e.name, e.start_us, e.duration_us, e.tag) for e in run.hsa_trace.events],
        events,
    )
    return observed, branches


#: name -> (workload factory, noise, branches it must take on the fused engine)
WORKLOADS = {
    "qmcpack-copy": (partial(QmcPackNio, size=4, n_threads=2, fidelity=Fidelity.TEST),
                     True, {"grant at once", "grant by release", "refused charge",
                            "handler"}),
    "lbm-copy": (partial(Lbm404, Fidelity.TEST), False,
                 {"grant at once", "refused charge", "handler"}),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bare_entry_workloads_fused_vs_reference(monkeypatch, name):
    factory, noise, expected = WORKLOADS[name]
    fused, branches = _run_workload(monkeypatch, factory, RuntimeConfig.COPY,
                                    "fast", 17, noise)
    reference, ref_branches = _run_workload(monkeypatch, factory, RuntimeConfig.COPY,
                                            "reference", 17, noise)
    assert fused == reference
    assert fused[2], "no target region ran"
    for branch in expected:
        assert branches[branch] >= 1, (name, branch, dict(branches))
    assert ref_branches["handler"] == branches["handler"]


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_async_copy_with_handler_builds_only_its_completion(monkeypatch, engine):
    """Three contended h2d copies with handlers build three ``Completion``s
    (their signals) and no other event; the host's one timeout is its own."""
    built = Counter()
    init = Event.__init__

    def counted_init(self, env):
        built[type(self).__name__] += 1
        init(self, env)

    timeout = Environment.timeout

    def counted_timeout(self, delay, value=None):
        built["timeout()"] += 1
        return timeout(self, delay, value)

    env, hsa, trace = _hsa(ENGINES[engine], 5)

    def host():
        for i in range(3):
            hsa.memory_async_copy(None, None, (1 + i) << 20, tag="h2d", handler=True)
        yield env.timeout(10_000.0)

    monkeypatch.setattr(Event, "__init__", counted_init)
    monkeypatch.setattr(Environment, "timeout", counted_timeout)
    env.run(env.process(host()))
    monkeypatch.undo()
    assert trace.count("memory_async_copy") == trace.count("signal_async_handler") == 3
    assert built == Counter({"Process": 1, "timeout()": 1, "Timeout": 1,
                             "Completion": 3})


def test_payload_moves_with_the_copy():
    env, hsa, _ = _hsa(Environment, 1)
    src, dst = np.arange(8.0), np.zeros(8)

    def host():
        sig = hsa.memory_async_copy(dst, src, 1 << 20, tag="h2d", handler=True)
        yield from hsa.signal_wait_scacquire(sig)

    env.run(env.process(host()))
    assert dst.tolist() == src.tolist()
