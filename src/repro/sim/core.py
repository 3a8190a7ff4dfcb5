"""Deterministic discrete-event simulation engine.

This is the substrate every other subsystem runs on.  It is a compact,
from-scratch engine in the style of SimPy: an :class:`Environment` owns a
priority queue of scheduled events, a :class:`Process` wraps a Python
generator that ``yield``\\ s events, and composite events (:class:`AllOf`,
:class:`AnyOf`) build barriers.

Design constraints that shaped this module:

* **Determinism.**  Two events scheduled for the same simulated time fire in
  schedule order (a monotonically increasing sequence number breaks ties).
  There is no wall-clock anywhere; repeated runs are bit-identical.
* **Throughput.**  QMCPack full-fidelity runs push a few million events
  through the queue, so the hot path is engineered around three costs:

  - *allocation*: processed :class:`Timeout` and bootstrap :class:`Event`
    objects are recycled through per-environment free lists.  Recycling is
    gated on ``sys.getrefcount`` — an object is only reclaimed when the
    engine holds the sole remaining reference — so user-held events keep
    their historical semantics, and a generation counter stored in every
    heap entry makes any engine-internal stale reference fail loudly
    instead of silently firing a reincarnated event.
  - *heap traffic*: uncontended fixed delays and free resource grants
    are **fused** inline.  The running process calls
    ``if not env.fuse(us): yield env.timeout(us)``: :meth:`Environment.fuse`
    accumulates the charge in a scalar as long as no other scheduled
    event falls inside the charged window (strict comparison, so
    exact-time ties still interleave exactly as separate timeouts would)
    and returns ``True``; the accumulator settles — one clock jump, no
    heap event — before anything observable: reading ``env.now``,
    scheduling any event, or suspending on a real event.  A contended
    charge returns ``False`` and the caller yields a real timeout, which
    is byte-for-byte the reference behaviour.  Free grants work the same
    way through ``res.grab() or (yield res.acquire())``
    (:meth:`repro.sim.resources.Resource.grab`): a free unit taken while
    no heap entry is at or before the current time counts one processed
    event and never touches the heap.  A critical section that holds
    only a fixed charge fuses as a whole through ``res.hold(us)``: grant,
    charge and release in one call, two events counted.  Fusion is held
    off while an event with several waiters runs their callbacks: the
    later waiters must still see the event's own time.  A
    :class:`Completion`'s lone waiter runs unheld instead; the end event
    behind it is counted at the waiter's first accepted fusion, or when
    it returns.  ``run(until=Event)`` adds a no-op
    mark to its stop event, so that event's waiters run held off too
    and none of them fuses past the end of the run.  These calls are valid
    in a process's generator and in a callback the event loop runs (the
    HSA operations); a callback must settle (read ``env.now``) before it
    returns, as the loop sets the next event's time without settling.
  - *dispatch*: ``run(until=Event)`` inlines the pop/advance/process
    loop with hoisted locals instead of calling :meth:`step` per event.

* **Auditability.**  :class:`ReferenceEnvironment` retains the historical
  one-heap-event-per-delay scheduler (the ``FlatPageTable`` precedent):
  ``fuse``, ``grab`` and ``hold`` always refuse, so every delay and
  every grant is a heap event, and nothing is recycled.  Both engines count one
  processed event per charge and per grant, so ``processed_events`` —
  and every simulated-time observable — is bit-identical between them;
  ``repro bench`` pins that equivalence with a randomized differential.
* **Debuggability.**  Failures inside a process propagate to whoever waits
  on it, and unhandled failures abort :meth:`Environment.run` with the
  original traceback.
"""

from __future__ import annotations

import heapq
from sys import getrefcount as _getrefcount
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "ReferenceEnvironment",
    "Event",
    "Completion",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "ENGINE_VERSION",
]

#: Bumped whenever engine changes could alter simulated-time arithmetic or
#: event accounting.  Part of the experiment cell-cache key: a cached
#: result can never be served across an engine whose numbers might differ.
#: The fused and reference schedulers share one version: their numbers are
#: bit-identical, pinned by the bench fused-vs-reference differential.
ENGINE_VERSION = 3


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
RECYCLED = 3   # returned to the environment's free list


#: free lists are bounded so a one-off burst cannot pin memory forever
_POOL_MAX = 1024

#: sequence number of the ``run(until=number)`` horizon marker: sorts
#: after every real heap entry at the horizon time
_HORIZON_SEQ = float("inf")


def _stop_mark(event: "Event") -> None:
    """No-op callback :meth:`Environment.run` adds to its stop event."""


class Event:
    """A single occurrence that processes can wait on.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it: the environment schedules it (optionally after a delay)
    and, when its time arrives, runs all registered callbacks exactly once.
    """

    __slots__ = ("env", "callbacks", "_state", "_value", "_ok", "_era")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: List[Optional[Callable[["Event"], None]]] = []
        self._state = PENDING
        self._value: Any = None
        self._ok = True
        #: generation counter: bumped when the event is recycled, recorded
        #: in every heap entry, checked on pop — stale queue entries for a
        #: recycled event raise instead of firing the new incarnation.
        self._era = 0

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
        if self._state == RECYCLED:
            raise SimulationError("stale reference: event was recycled")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        if self._state != PENDING:
            if self._state == RECYCLED:
                raise SimulationError("stale reference: event was recycled")
            raise SimulationError("event already triggered")
        self._state = TRIGGERED
        self._value = value
        self._ok = True
        self.env._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        if self._state != PENDING:
            if self._state == RECYCLED:
                raise SimulationError("stale reference: event was recycled")
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
        elif self._state == RECYCLED:
            raise SimulationError("stale reference: event was recycled")
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        if len(callbacks) == 1:
            fn = callbacks[0]
            if fn is not None:  # None = tombstone left by Process.interrupt
                fn(self)
            return
        # Several waiters: each one's actions must happen at this event's
        # time, before the next waiter runs, so fusion is held off until
        # the last callback returns (see Environment.fuse).
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
                 PROCESSED: "processed", RECYCLED: "recycled"}
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
            tail = Event(env)
            tail._state = TRIGGERED
            heapq.heappush(env._queue, (env._now, self._tail, tail._era, tail))
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
                env._event_count += 1
            return
        env._hold += 1
        try:
            Event._process(self)
        finally:
            env._hold -= 1
        env._event_count += 1


class Process(Event):
    """Wraps a generator; itself an event that fires when the generator ends.

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds, its value is sent back into the generator; when it fails, the
    exception is thrown into the generator (giving it a chance to handle
    failure).  The process event's value is the generator's return value.
    """

    __slots__ = ("_gen", "_waiting_on", "_waiting_slot", "_interrupt_ev",
                 "_cb", "name")

    def __init__(self, env: "Environment", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(f"Process expects a generator, got {type(gen)!r}")
        super().__init__(env)
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self._waiting_slot = -1
        self._interrupt_ev: Optional[Event] = None
        #: one bound method reused for every registration — avoids a fresh
        #: method object per wait and makes interrupt's tombstone check an
        #: identity test
        self._cb = self._resume
        self.name = name or getattr(gen, "__name__", "process")
        # Bootstrap: start executing at the current time.
        env._bootstrap(self._cb)

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Detaching the process from whatever it was waiting on is O(1): the
        registration slot recorded at suspension is tombstoned (set to
        ``None``) instead of searched-and-removed.  Interrupting a process
        whose previous interrupt wakeup is still queued is an error — the
        second wakeup would resume the generator a second time while it is
        already running its interrupt handler (a silent double-resume in
        the historical engine).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        prior = self._interrupt_ev
        if prior is not None and prior._state != PROCESSED:
            raise SimulationError(
                f"process {self.name!r} already has a queued interrupt "
                "wakeup (double interrupt before delivery)"
            )
        target = self._waiting_on
        if target is not None:
            slot = self._waiting_slot
            cbs = target.callbacks
            if 0 <= slot < len(cbs) and cbs[slot] is self._cb:
                cbs[slot] = None  # O(1) tombstone; _process skips it
        self._waiting_on = None
        self._waiting_slot = -1
        wakeup = Event(self.env)
        self._interrupt_ev = wakeup
        wakeup.fail(Interrupt(cause))
        wakeup.add_callback(self._cb)

    def _resume(self, trigger: Event) -> None:
        # Iterative resume loop: if the yielded event is already processed we
        # feed its value straight back in rather than recursing through
        # add_callback — a process draining a long list of completed signals
        # must not grow the Python stack.
        env = self.env
        gen = self._gen
        send = gen.send
        while True:
            self._waiting_on = None
            self._waiting_slot = -1
            if trigger is self._interrupt_ev:
                self._interrupt_ev = None
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
            if not isinstance(nxt, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {type(nxt).__name__}, expected Event"
                )
            if nxt.env is not env:
                raise SimulationError("yielded event belongs to a different Environment")
            state = nxt._state
            if state == PROCESSED:
                trigger = nxt
                continue
            if state == RECYCLED:
                raise SimulationError(
                    f"process {self.name!r} yielded a recycled event "
                    "(stale reference)"
                )
            # Suspending on a real event: settle fused charges first so the
            # clock the next event fires against is fully advanced.
            if env._pending_n:
                env._settle()
            self._waiting_on = nxt
            self._waiting_slot = len(nxt.callbacks)
            nxt.callbacks.append(self._cb)
            return

    def _anyone_cares(self) -> bool:
        # the run(until=...) stop mark is not a waiter: a stop process
        # nobody else waits on still raises straight out of run()
        cbs = self.callbacks
        return len(cbs) > 1 or (bool(cbs) and cbs[0] is not _stop_mark)


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, ev: Event) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired; value is {event: value}."""

    __slots__ = ("_n_done",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        self._n_done = 0
        super().__init__(env, events)

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev._value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed({e: e._value for e in self.events})


class AnyOf(_Condition):
    """Fires when the first constituent event fires; value is that event's."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev._value)
            return
        self.succeed(ev._value)


class Environment:
    """The simulation clock and event queue.

    Time is a float in **microseconds**.  All scheduling goes through
    :meth:`_schedule`; user code creates events with :meth:`event`,
    :meth:`timeout` and :meth:`process`, and fuses uncontended delays
    with :meth:`fuse`.

    Reading :attr:`now` settles any fused-but-unsettled charges of the
    currently executing process, so the clock is always fully advanced at
    every observable point — the fusion invariant the differential bench
    pins.
    """

    __slots__ = ("_now", "_queue", "_seq", "_event_count",
                 "_pending", "_pending_n", "_hold", "_owed",
                 "_timeout_pool", "_event_pool")

    def __init__(self, initial_time: float = 0.0):
        self._now: float = float(initial_time)
        self._queue: List[tuple] = []
        self._seq = 0
        self._event_count = 0
        # fused-charge accumulator (owned by the running process)
        self._pending = 0.0
        self._pending_n = 0
        # >0 while an event with several callbacks runs them (no fusion;
        # always >0 on the reference engine)
        self._hold = 0
        # 1 while a Completion's lone waiter runs and the end event behind
        # the Completion is not counted yet (see Completion._process)
        self._owed = 0
        # free lists of recycled event objects
        self._timeout_pool: List[Timeout] = []
        self._event_pool: List[Event] = []

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        if self._pending_n:
            self._settle()
        return self._now

    def _settle(self) -> None:
        """Fold accumulated charges into the clock.

        Safe whenever the accumulation invariant holds (no scheduled event
        inside the charged window, maintained by :meth:`fuse` and
        :meth:`_schedule`); each fused charge counts as one processed
        event so ``processed_events`` matches the reference engine.
        """
        self._now += self._pending
        self._event_count += self._pending_n
        self._pending = 0.0
        self._pending_n = 0

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool and value is None:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            t = pool.pop()
            t._state = TRIGGERED
            t._ok = True
            t.delay = delay
            self._schedule(t, delay)
            return t
        return Timeout(self, delay, value)

    def fuse(self, delay: float) -> bool:
        """Charge ``delay`` µs in place if nothing can tell the difference.

        ``if not env.fuse(us): yield env.timeout(us)`` is the fused form of
        ``yield env.timeout(us)``.  If no heap entry is at or before
        ``now + pending + delay`` (strictly: an exact-time tie must
        interleave in FIFO order, which needs a real heap event) and no
        other waiter of the resuming event still has to run at the
        current time, the delay joins the accumulator, counts one
        processed event once settled, and ``True`` is returned.
        Otherwise nothing changes and ``False`` tells the caller to yield
        the real timeout.  Valid in a process's generator or a settling
        event-loop callback; :class:`ReferenceEnvironment` always refuses.
        """
        if delay < 0:
            raise ValueError(f"negative charge delay: {delay}")
        q = self._queue
        if (not q or q[0][0] > self._now + self._pending + delay) and not self._hold:
            if self._owed:
                self._owed = 0
                self._event_count += 1
            self._pending += delay
            self._pending_n += 1
            return True
        return False

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
        if self._pending_n:
            self._settle()
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, event._era, event))

    def _bootstrap(self, fn: Callable[[Event], None]) -> Event:
        """An immediately-succeeding event carrying a process's first resume
        or a callback chain's start (recycled through the event free list)."""
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            ev._state = TRIGGERED
            ev._ok = True
            self._schedule(ev, 0.0)
            ev.callbacks.append(fn)
            return ev
        ev = Event(self)
        ev.succeed()
        ev.add_callback(fn)
        return ev

    def _elide(self) -> None:
        """Count the end event a callback chain's process would queue now:
        at once if the reference engine pops it next, else as a no-op."""
        if self.peek() > self._now:  # peek() settles first
            self._event_count += 1
        else:
            Event(self).succeed()

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (diagnostics).

        Fused charges and grants count one each, so the total matches the
        reference engine event-for-event.
        """
        if self._pending_n:
            self._settle()
        return self._event_count

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._pending_n:
            self._settle()
        q = self._queue
        if q and q[0][3] is None:  # the horizon marker of run(until=number)
            q = q[1:3]  # the heap's next-smallest entry is a root child
            return min(q)[0] if q else float("inf")
        return q[0][0] if q else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        t, _seq, era, event = heapq.heappop(self._queue)
        if era != event._era:
            raise SimulationError(
                "stale heap entry: event was recycled while scheduled"
            )
        if t < self._now:
            raise SimulationError("time went backwards; corrupted queue")
        self._now = t
        self._event_count += 1
        event._process()
        # Recycle iff the engine held the only reference (local + arg = 2):
        # user-held events keep their full post-processing semantics.
        cls = event.__class__
        if (cls is Timeout and _getrefcount(event) == 2
                and len(self._timeout_pool) < _POOL_MAX):
            event._state = RECYCLED
            event._era += 1
            event._value = None
            self._timeout_pool.append(event)
        elif (cls is Event and _getrefcount(event) == 2
                and len(self._event_pool) < _POOL_MAX):
            event._state = RECYCLED
            event._era += 1
            event._value = None
            self._event_pool.append(event)

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
            # Inlined stepping loop: hoists the queue, heap pop, free lists
            # and the refcount probe into locals — per-event method
            # dispatch through step() costs ~25% on charge-light runs.  The
            # processed counter is bumped before each event runs, as in
            # step(), so a process reading it mid-run sees the same count
            # as on the reference engine.
            q = self._queue
            pop = heapq.heappop
            tpool = self._timeout_pool
            epool = self._event_pool
            getref = _getrefcount
            while stop._state != PROCESSED:
                if not q:
                    raise SimulationError(
                        f"event queue drained before {stop!r} fired (deadlock?)"
                    )
                t, _seq, era, event = pop(q)
                if era != event._era:
                    raise SimulationError(
                        "stale heap entry: event was recycled while scheduled"
                    )
                if t < self._now:
                    raise SimulationError("time went backwards; corrupted queue")
                self._now = t
                self._event_count += 1
                event._process()
                cls = event.__class__
                if (cls is Timeout and getref(event) == 2
                        and len(tpool) < _POOL_MAX):
                    event._state = RECYCLED
                    event._era += 1
                    event._value = None
                    tpool.append(event)
                elif (cls is Event and getref(event) == 2
                        and len(epool) < _POOL_MAX):
                    event._state = RECYCLED
                    event._era += 1
                    event._value = None
                    epool.append(event)
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
            marker = (horizon, _HORIZON_SEQ, 0, None)
            heapq.heappush(q, marker)
            try:
                while q[0] is not marker:
                    self.step()
            finally:
                q.remove(marker)
                heapq.heapify(q)
            self._now = max(self.now, horizon)
            return None
        while self._queue:
            self.step()
        return None


class ReferenceEnvironment(Environment):
    """The retained pre-fast-path scheduler (differential reference).

    Fusion is permanently held off, so :meth:`fuse` and
    :meth:`~repro.sim.resources.Resource.grab` always refuse: every delay
    is its own heap-scheduled :class:`Timeout`, every resource grant is a
    heap-scheduled event, and its un-inlined stepping loop never fills the
    free lists, so nothing is recycled.  Kept — like ``FlatPageTable`` —
    so a randomized differential can pin the fast path's equivalence on
    every simulated-time observable, including ``processed_events``.
    """

    __slots__ = ()

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        self._hold = 1

    def step(self) -> None:
        t, _seq, _era, event = heapq.heappop(self._queue)
        if t < self._now:
            raise SimulationError("time went backwards; corrupted queue")
        self._now = t
        self._event_count += 1
        event._process()

    def run(self, until: Optional[Any] = None) -> Any:
        if isinstance(until, Event):
            stop = until
            if stop._state != PROCESSED and _stop_mark not in stop.callbacks:
                stop.callbacks.append(_stop_mark)  # seen by Completion
            while stop._state != PROCESSED:
                if not self._queue:
                    raise SimulationError(
                        f"event queue drained before {stop!r} fired (deadlock?)"
                    )
                self.step()
            if not stop.ok:
                raise stop._value
            return stop._value
        if until is not None:
            horizon = float(until)
            while self._queue and self._queue[0][0] <= horizon:
                self.step()
            self._now = max(self.now, horizon)
            return None
        while self._queue:
            self.step()
        return None
