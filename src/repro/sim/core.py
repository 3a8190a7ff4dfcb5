"""Deterministic discrete-event simulation engine.

This is the substrate every other subsystem runs on.  It is a compact,
from-scratch engine in the style of SimPy: an :class:`Environment` owns a
priority queue of scheduled events, a :class:`Process` wraps a Python
generator that ``yield``\\ s events, and :class:`AllOf` builds barriers.

Design constraints that shaped this module:

* **Determinism.**  Two events scheduled for the same simulated time fire in
  schedule order (a monotonically increasing sequence number breaks ties).
  There is no wall-clock anywhere; repeated runs are bit-identical.
* **One entry shape.**  Every heap entry is ``(time, seq, fn)``, and the
  loop pops it, advances the clock, counts one processed event and calls
  ``fn()``.  A triggered event pushes its bound ``_process``
  (:meth:`Environment._schedule`); anything else pushes a plain callable
  (:meth:`Environment._schedule_call`).
* **Throughput.**  QMCPack full-fidelity runs push a few million events
  through the queue, so the hot path is engineered around two costs:

  - *heap traffic*: engine-internal wakes (process starts, the HSA
    callback chains' steps, grants to ``Resource.request`` waiters,
    :meth:`Environment._elide`'s no-ops) and a process's own sleeps and
    lock grants are *bare entries* (:meth:`Environment._schedule_call`),
    not events: a bare entry takes one ``seq`` and counts one processed
    event exactly where the event it replaces did, and ``fn()`` runs as
    that event's lone callback.  A process sleeps by yielding a ``float``
    delay and waits for a unit by yielding the
    :class:`~repro.sim.resources.Resource`
    (see :class:`Process`); ``env.timeout(us)`` and ``res.acquire()``
    stay the public :class:`Event` API for workloads and tests.
    Uncontended fixed delays and free resource grants
    are **fused** inline.  The running process calls
    ``if not env.fuse(us): yield us``: :meth:`Environment.fuse`
    advances the clock in place as long as no other scheduled event falls
    inside the charged window (strict comparison, so exact-time ties
    still interleave exactly as separate timeouts would), counts the
    processed event and returns ``True``.  There is no accumulator: the
    clock takes one addition per charge, ``now + us``, exactly where the
    reference engine's timeout would pop, so back-to-back charges round
    as they do there.  A contended charge returns ``False`` and the
    caller yields the delay, a heap entry where the reference engine
    has one.  ``fuse(us, n)`` is the engine's one fusion test, and it
    counts the ``n`` processed events a fused span stands for.  Free
    grants go through it as ``res.grab() or (yield res)``
    (:meth:`repro.sim.resources.Resource.grab`): a free unit with nobody
    queued, then ``fuse(0.0)``, counting the grant's event off the heap.
    A critical section that holds only a fixed charge fuses as a whole
    through ``res.hold(us)``: the same check, then ``fuse(us, 2)`` for
    the grant and the charge.  Pops that no fusion stands for (an inlined
    chain's bootstrap, signal and end event) are counted by
    :meth:`Environment._count`.  A kernel or copy
    the process waits on at once runs in the process's frame
    (:meth:`Environment._inline`) when ``grab()`` takes its unit: if its
    charge fuses too, it completes with no heap entry and no signal,
    counting the bootstrap, grant, charge, signal and end event; a
    refused charge goes on as a chain of bare entries.  Fusion is held
    off while an event with several waiters runs their callbacks: the
    later waiters must still see the event's own time.  A
    :class:`Completion`'s lone waiter runs unheld instead; the end event
    behind it is counted at the waiter's first accepted fusion, or when
    it returns.  ``run(until=Event)`` adds a no-op
    mark to its stop event, so that event's waiters run held off too
    and none of them fuses past the end of the run.  These calls are valid
    in a process's generator and in a callback the event loop runs (the
    HSA operations' bare entries); the clock is always current, so a
    callback needs no settle before it returns.
  - *dispatch*: ``run(until=Event)`` inlines the pop/advance/call loop
    with hoisted locals instead of calling :meth:`step` per event.

* **Auditability.**  :class:`ReferenceEnvironment` retains the historical
  one-heap-event-per-delay scheduler as the oracle of the fast path:
  ``fuse``, ``grab`` and ``hold`` always refuse, so every delay and
  every grant is a heap entry.  Both engines count one
  processed event per charge and per grant, so ``processed_events`` —
  and every simulated-time observable — is bit-identical between them;
  ``tests/test_engine_differential.py`` pins that equivalence on real
  workloads.
* **Debuggability.**  Failures inside a process propagate to whoever waits
  on it, and unhandled failures abort :meth:`Environment.run` with the
  original traceback.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "ReferenceEnvironment",
    "Event",
    "Completion",
    "Timeout",
    "Process",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "ENGINE_VERSION",
]

#: Bumped whenever engine changes could alter simulated-time arithmetic or
#: event accounting.  Part of the experiment cell-cache key: a cached
#: result can never be served across an engine whose numbers might differ.
#: The fused and reference schedulers share one version: their numbers are
#: bit-identical, pinned by the fused-vs-reference differential tests.
ENGINE_VERSION = 4


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. re-triggering an event)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states.
PENDING = 0
TRIGGERED = 1  # scheduled, sitting in the queue
PROCESSED = 2  # callbacks have run


#: sequence number of the ``run(until=number)`` horizon marker: sorts
#: after every real heap entry at the horizon time
_HORIZON_SEQ = float("inf")


def _stop_mark(event: "Event") -> None:
    """No-op callback :meth:`Environment.run` adds to its stop event."""


def _noop() -> None:
    """Bare heap entry standing for an end event nothing waits on."""


class Event:
    """A single occurrence that processes can wait on.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it: the environment schedules it (optionally after a delay)
    and, when its time arrives, runs all registered callbacks exactly once.
    """

    __slots__ = ("env", "callbacks", "_state", "_value", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: List[Optional[Callable[["Event"], None]]] = []
        self._state = PENDING
        self._value: Any = None
        self._ok = True

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state == TRIGGERED or self._state == PROCESSED

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event succeeded. Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == PENDING:
            raise SimulationError("event value read before it was triggered")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        self._state = TRIGGERED
        self._value = value
        self._ok = True
        self.env._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() expects an exception instance")
        self._state = TRIGGERED
        self._value = exc
        self._ok = False
        self.env._schedule(self, delay)
        return self

    # -- callback plumbing -------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event fires.

        If the event was already processed the callback runs immediately;
        this keeps "wait on an already-completed operation" race-free.
        """
        if self._state == PROCESSED:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        self._state = PROCESSED
        callbacks = self.callbacks
        if len(callbacks) == 1:
            fn = callbacks.pop()  # in place: no fresh list per event
            if fn is not None:  # None = tombstone left by Process.interrupt
                fn(self)
            return
        if not callbacks:
            return
        # Several waiters: each one's actions must happen at this event's
        # time, before the next waiter runs, so fusion is held off until
        # the last callback returns (see Environment.fuse).
        self.callbacks = []
        env = self.env
        env._hold += 1
        try:
            for fn in callbacks:
                if fn is not None:
                    fn(self)
        finally:
            env._hold -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered",
                 PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.env.now}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._state = TRIGGERED
        self._value = value
        env._schedule(self, delay)


class Completion(Event):
    """Result event of an operation run as engine callbacks, not a process.

    :meth:`succeed` reserves the heap position of the end event a process
    would have queued right behind it; the reference engine pops that
    event right after this one's callbacks.  A lone waiter runs unheld
    with the end event owed (``Environment._owed``): its first accepted
    ``fuse``, ``grab`` or ``hold`` counts it first, since that fusion
    stands for a heap entry the end event precedes; a waiter that accepts
    none has it counted when it returns, one that raises never.  Several
    waiters run held off and the end event
    is counted after them.  If a run stops here, it is queued as a no-op
    at its reserved position.
    """

    __slots__ = ("_tail",)

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        Event.succeed(self, value, delay)
        self._tail = self.env._seq = self.env._seq + 1  # the end event's seq
        return self

    def _process(self) -> None:
        env = self.env
        if _stop_mark in self.callbacks:
            env._schedule_call(_noop, seq=self._tail)
            return Event._process(self)
        if len(self.callbacks) == 1 and not env._hold:
            env._owed = 1
            try:
                Event._process(self)
            except BaseException:
                env._owed = 0
                raise
            if env._owed:
                env._owed = 0
                env._count()
            return
        env._hold += 1
        try:
            Event._process(self)
        finally:
            env._hold -= 1
        env._count()


class Process(Event):
    """Wraps a generator; itself an event that fires when the generator ends.

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds, its value is sent back into the generator; when it fails, the
    exception is thrown into the generator (giving it a chance to handle
    failure).  The process event's value is the generator's return value.

    Two waits need no event: a yielded ``float`` sleeps that many µs, and a
    yielded :class:`~repro.sim.resources.Resource` waits for a unit and
    sends in its :class:`~repro.sim.resources.Grant`.  Each is one bare
    heap entry (:meth:`Environment._schedule_call`) that takes its ``seq``
    and counts its processed event exactly where ``env.timeout(us)`` or
    ``res.acquire()`` would have: the slow paths of
    ``if not env.fuse(us): yield us`` and ``res.grab() or (yield res)``.
    """

    __slots__ = ("_gen", "_waiting_on", "_interrupt_ev", "_cb", "_wake", "name")

    def __init__(self, env: "Environment", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(f"Process expects a generator, got {type(gen)!r}")
        super().__init__(env)
        self._gen = gen
        #: what the suspended process waits on: an Event, a float delay or
        #: a Resource (None while it runs; read only by interrupt)
        self._waiting_on: Any = None
        self._interrupt_ev: Optional[Event] = None
        #: one bound method reused for every registration — avoids a fresh
        #: method object per wait and lets interrupt find it by identity
        self._cb = self._resume
        #: the bare wake of a start or a sleep: the pending process itself
        #: reads as the trigger, a success with no value
        self._wake = partial(self._cb, self)
        self.name = name or getattr(gen, "__name__", "process")
        env._schedule_call(self._wake)  # start at the current time

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process is first detached from its wait, found by a scan: an
        event's callback is tombstoned (set to ``None``); a sleep's wake,
        or a grant still queued on the resource or in the heap, becomes a
        no-op at its place.  Either way the stale entry still pops and
        counts one event, and a unit handed to it stays in use, granted to
        nobody.  Interrupting a process whose previous interrupt wakeup is
        still queued is an error — the second wakeup would resume the
        generator a second time while it is already running its interrupt
        handler (a silent double-resume in the historical engine).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self._interrupt_ev is not None:
            raise SimulationError(
                f"process {self.name!r} already has a queued interrupt "
                "wakeup (double interrupt before delivery)"
            )
        target, cb = self._waiting_on, self._cb
        if isinstance(target, Event):
            cbs = target.callbacks
            for i, fn in enumerate(cbs):
                if fn is cb:
                    cbs[i] = None  # tombstone; _process skips it
                    break
        elif target is not None:  # a bare wait: the sleep's or the grant's
            waiters = () if isinstance(target, float) else target._waiters
            for i, (fn, _grant) in enumerate(waiters):
                if fn.__class__ is partial and fn.func is cb:
                    waiters[i] = (_noop, None)  # handed over to nobody
                    break
            else:
                q = self.env._queue
                for i, entry in enumerate(q):
                    fn = entry[2]
                    if fn.__class__ is partial and fn.func is cb:
                        q[i] = entry[:2] + (_noop,)  # same key: heap order holds
                        break
        self._waiting_on = None
        wakeup = Event(self.env)
        self._interrupt_ev = wakeup
        wakeup.fail(Interrupt(cause))
        wakeup.add_callback(self._interrupted)

    def _interrupted(self, wakeup: Event) -> None:
        self._interrupt_ev = None
        self._resume(wakeup)

    def _resume(self, trigger: Any) -> None:
        # Iterative resume loop: if the yielded event is already processed we
        # feed its value straight back in rather than recursing through
        # add_callback — a process draining a long list of completed signals
        # must not grow the Python stack.  A trigger is an Event, or the
        # process itself (a start or a sleep) or a Grant: both read as a
        # success carrying their _value.
        self._waiting_on = None  # running: nothing for interrupt to detach
        env = self.env
        gen = self._gen
        send = gen.send
        while True:
            try:
                nxt = (send(trigger._value) if trigger._ok
                       else gen.throw(trigger._value))
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Interrupt as exc:
                # An unhandled interrupt terminates the process with failure.
                self.fail(exc)
                return
            except BaseException as exc:
                if self._anyone_cares():
                    self.fail(exc)
                else:
                    raise
                return
            if isinstance(nxt, float):  # a bare sleep
                self._waiting_on = nxt
                env._schedule_call(self._wake, nxt)
                return
            if not isinstance(nxt, Event):
                if not isinstance(nxt, Resource):
                    raise SimulationError(
                        f"process {self.name!r} yielded {type(nxt).__name__}, "
                        "expected Event, float delay or Resource"
                    )
                if nxt.env is not env:
                    raise SimulationError("yielded resource belongs to a different Environment")
                self._waiting_on = nxt
                nxt.request(self._cb)  # a bare grant: sends in the Grant
                return
            if nxt.env is not env:
                raise SimulationError("yielded event belongs to a different Environment")
            if nxt._state == PROCESSED:
                trigger = nxt
                continue
            self._waiting_on = nxt
            nxt.callbacks.append(self._cb)
            return

    def _anyone_cares(self) -> bool:
        # the run(until=...) stop mark is not a waiter: a stop process
        # nobody else waits on still raises straight out of run()
        cbs = self.callbacks
        return len(cbs) > 1 or (bool(cbs) and cbs[0] is not _stop_mark)


class AllOf(Event):
    """Fires when every constituent event has fired; value is {event: value}."""

    __slots__ = ("events", "_n_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._n_done = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev._value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed({e: e._value for e in self.events})


class Environment:
    """The simulation clock and event queue.

    Time is a float in **microseconds**.  All scheduling goes through
    :meth:`_schedule` (events) or :meth:`_schedule_call` (bare entries); user code creates events with :meth:`event`,
    :meth:`timeout` and :meth:`process`, and fuses uncontended delays
    with :meth:`fuse`.

    :attr:`now` is a plain attribute: a fused charge advances it in
    place, so it reads what the reference engine's clock would at every
    point.
    """

    __slots__ = ("now", "_queue", "_seq", "_event_count", "_hold", "_owed")

    def __init__(self):
        self.now: float = 0.0
        self._queue: List[tuple] = []
        self._seq = 0
        self._event_count = 0
        # >0 while an event with several callbacks runs them (no fusion;
        # always >0 on the reference engine)
        self._hold = 0
        # 1 while a Completion's lone waiter runs and the end event behind
        # the Completion is not counted yet (see Completion._process)
        self._owed = 0

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def fuse(self, delay: float, n: int = 1) -> bool:
        """Charge ``delay`` µs in place if nothing can tell the difference.

        ``if not env.fuse(us): yield us`` is the fused form of
        ``yield env.timeout(us)``.  If no heap entry is at or before
        ``now + delay`` (strictly: an exact-time tie must interleave in
        FIFO order, which needs a real heap event) and no other waiter of
        the resuming event still has to run at the current time, the
        clock advances in place by the one addition the reference
        engine's timeout makes, the ``n`` processed events the fused span
        stands for are counted (after an owed end event, see
        :class:`Completion`), and ``True`` is returned: ``n`` is 1 for a
        charge, and :class:`~repro.sim.resources.Resource` passes 0 µs
        for a grant and 2 for a ``hold``'s grant plus charge.  Otherwise
        nothing changes and ``False`` tells the caller to yield the delay
        (or a real timeout).  This is the engine's one fusion test.  Valid
        in a process's generator or an event-loop callback;
        :class:`ReferenceEnvironment` always refuses.
        """
        if delay < 0:
            raise ValueError(f"negative charge delay: {delay}")
        q = self._queue
        end = self.now + delay
        if (not q or q[0][0] > end) and not self._hold:
            if self._owed:
                self._owed = 0
                self._event_count += 1
            self.now = end
            self._event_count += n
            return True
        return False

    def _count(self, n: int = 1) -> None:
        """Count ``n`` processed events that never touch the heap: pops
        the reference engine makes that no fusion test stands for."""
        self._event_count += n

    def charge(self, delay: float) -> Timeout:
        """A plain :meth:`timeout`, never fused.

        Kept for callers written against the old yielded-marker protocol
        (the benchmark harness self-tests); modeled code uses :meth:`fuse`.
        """
        return self.timeout(delay)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, event._process))

    def _schedule_call(self, fn: Callable[[], None], delay: float = 0.0,
                       seq: int = 0) -> None:
        """Queue ``fn()`` as a bare heap entry ``delay`` µs from now.

        It takes the next ``seq`` (or the reserved one given) and counts
        one processed event when popped, exactly where an :class:`Event`
        scheduled here would; ``fn()`` runs as that event's lone, unheld
        callback.
        """
        if not seq:
            self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, fn))

    def _inline(self, res: Any, start: Callable) -> Optional[tuple]:
        """Run in place a callback chain the running process waits on at once.

        The chain is a bootstrap at ``now``, a grant of a unit of ``res``,
        ``start(grant)`` returning ``(us, finish)``, the ``us`` charge, then
        ``finish()`` and the signal the process waits on.  Returns ``None``,
        changing nothing, if ``res.grab()`` refuses.  Else the reference
        engine would pop the bootstrap and the grant next, so ``start`` runs
        here.  If the charge fuses, ``finish`` runs too and ``(True, value)``
        is returned, with the bootstrap, the signal's pop and the end event
        behind it counted: no heap entry, no suspension.  Else only the
        bootstrap is counted and ``(False, (us, finish))`` is returned.
        """
        grant = res.grab()  # counts an owed end event, then the grant
        if grant is None:
            return None
        self._count()  # the bootstrap, popped before the grant
        us, finish = start(grant)
        if not self.fuse(us):
            return False, (us, finish)
        value = finish()
        self._count(2)  # the signal's pop and the end event behind it
        return True, value

    def _elide(self) -> None:
        """Count the end event a callback chain's process would queue now:
        at once if the reference engine pops it next, else as a no-op."""
        if self.peek() > self.now:
            self._count()
        else:
            self._schedule_call(_noop)

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (diagnostics).

        Fused charges and grants count one each, so the total matches the
        reference engine event-for-event.
        """
        return self._event_count

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        q = self._queue
        if q and q[0][2] is None:  # the horizon marker of run(until=number)
            q = q[1:3]  # the heap's next-smallest entry is a root child
            return min(q)[0] if q else float("inf")
        return q[0][0] if q else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        t, _seq, fn = heapq.heappop(self._queue)
        if t < self.now:
            raise SimulationError("time went backwards; corrupted queue")
        self.now = t
        self._event_count += 1
        fn()

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until ``until`` fires (an Event), until time ``until`` (a
        number), or until the queue drains (``None``).

        Returns the event's value when ``until`` is an event.
        """
        if isinstance(until, Event):
            stop = until
            if stop._state != PROCESSED and _stop_mark not in stop.callbacks:
                # With the mark, a waiter of the stop event makes it a
                # several-callback event: its callbacks run under _hold,
                # so no waiter fuses past the end of the run.
                stop.callbacks.append(_stop_mark)
            # Inlined stepping loop: hoists the queue and heap pop into
            # locals — per-event method dispatch through step() costs ~25%
            # on charge-light runs.  The processed counter is bumped before
            # each event runs, as in step(), so a process reading it
            # mid-run sees the same count as on the reference engine.
            q = self._queue
            pop = heapq.heappop
            while stop._state != PROCESSED:
                if not q:
                    raise SimulationError(
                        f"event queue drained before {stop!r} fired (deadlock?)"
                    )
                t, _seq, fn = pop(q)
                if t < self.now:
                    raise SimulationError("time went backwards; corrupted queue")
                self.now = t
                self._event_count += 1
                fn()
            if not stop.ok:
                raise stop._value
            return stop._value
        if until is not None:
            horizon = float(until)
            # A marker entry at the horizon that sorts after every real
            # entry at that time.  To the fusion tests it is one more
            # scheduled event, so a charge reaching or crossing the
            # horizon becomes a real timeout, and a grant at the horizon a
            # real event, instead of running the process past it — no
            # per-charge horizon check needed.
            q = self._queue
            marker = (horizon, _HORIZON_SEQ, None)
            heapq.heappush(q, marker)
            try:
                while q[0] is not marker:
                    self.step()
            finally:
                q.remove(marker)
                heapq.heapify(q)
            self.now = max(self.now, horizon)
            return None
        while self._queue:
            self.step()
        return None


class ReferenceEnvironment(Environment):
    """The retained pre-fast-path scheduler (differential reference).

    Fusion is permanently held off, so :meth:`fuse` and
    :meth:`~repro.sim.resources.Resource.grab` always refuse: every delay
    and every resource grant is its own heap entry.  Kept so the
    differential tests can pin the fast path's equivalence on every
    simulated-time observable, including ``processed_events``.
    """

    __slots__ = ()

    def __init__(self):
        super().__init__()
        self._hold = 1


# Resource builds on this module; a yielded one is a bare grant wait.
from .resources import Resource  # noqa: E402
