"""Shared-resource primitives for the simulation engine.

Models everything in the stack that serializes concurrent activity:

* :class:`Resource` — a counted resource with FIFO queuing.  Used for GPU
  compute queues (capacity = number of concurrently running kernels the
  hardware sustains for our workloads), SDMA copy engines, and the
  page-fault service unit.
* :class:`Mutex` — capacity-1 convenience wrapper.  Used for the
  libomptarget/ROCr allocation lock that makes Legacy Copy scale poorly
  with host threads (paper §V.A.2).

Requests are context-manager friendly inside processes::

    with (yield res.acquire()) :   # not valid python - use pattern below
        ...

Because generators cannot ``yield`` inside a ``with`` header cleanly, the
idiomatic pattern here is explicit::

    grant = res.grab() or (yield res.acquire())
    try:
        ...
    finally:
        res.release(grant)

:meth:`Resource.grab` takes a free unit inline, without a heap event,
when the fused engine can prove nobody could observe the difference;
otherwise the process waits on :meth:`Resource.acquire` as usual.  A
critical section that holds nothing but a fixed charge fuses as a whole:
``if not res.hold(us):`` the pattern above with ``env.fuse(us)`` inside.
:meth:`Resource.hold` never calls :meth:`Resource.release`, so a tracer
wrapping ``release`` sees only that slow path.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .core import Environment, Event, SimulationError

__all__ = ["Resource", "Mutex", "Grant"]


class Grant:
    """Token proving ownership of one unit of a resource."""

    __slots__ = ("resource", "active")

    def __init__(self, resource: "Resource"):
        self.resource = resource
        self.active = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Grant of {self.resource.name!r} active={self.active}>"


class Resource:
    """A counted, FIFO-fair shared resource.

    ``capacity`` units exist; :meth:`acquire` returns an event that fires
    (with a :class:`Grant` value) once a unit is available.  Fairness is
    strict FIFO, which mirrors the in-order servicing of hardware queues
    and keeps the simulation deterministic.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name or f"resource@{id(self):x}"
        self._in_use = 0
        self._waiters: Deque[tuple[Event, Grant]] = deque()
        # occupancy bookkeeping for utilization diagnostics
        self._busy_time = 0.0
        self._last_change = env.now

    # -- stats -------------------------------------------------------------
    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of capacity busy since time ``since``."""
        self._account()
        horizon = self.env.now - since
        if horizon <= 0:
            return 0.0
        return self._busy_time / (horizon * self.capacity)

    def _account(self) -> None:
        env = self.env
        if env._pending_n:  # what reading env.now does, without the property
            env._settle()
        now = env._now
        dt = now - self._last_change
        if dt > 0:
            self._busy_time += dt * self._in_use
            self._last_change = now

    # -- acquire/release -----------------------------------------------------
    def acquire(self) -> Event:
        """Return an event firing with a :class:`Grant` when a unit frees."""
        ev = self.env.event()
        grant = Grant(self)
        if self._in_use < self.capacity and not self._waiters:
            self._account()
            self._in_use += 1
            ev.succeed(grant)
        else:
            self._waiters.append((ev, grant))
        return ev

    def grab(self) -> Optional[Grant]:
        """Take a free unit inline: ``res.grab() or (yield res.acquire())``.

        Succeeds only when a unit is free, nobody queues for one, no heap
        entry is at or before the current time (the strict-tie rule: the
        reference engine would pop this grant's event next) and fusion is
        not held off (see :meth:`Environment.fuse`).  Then it takes the
        unit and counts the one processed event the grant's event would
        have been.  Otherwise it returns ``None`` and changes nothing.
        Valid where :meth:`~repro.sim.core.Environment.fuse` is.
        """
        env = self.env
        if self._in_use < self.capacity and not self._waiters and not env._hold:
            if env._pending_n:
                env._settle()
            q = env._queue
            if not q or q[0][0] > env._now:
                if env._owed:
                    env._owed = 0
                    env._event_count += 1
                self._account()
                self._in_use += 1
                env._event_count += 1
                return Grant(self)
        return None

    def hold(self, delay: float) -> bool:
        """Take a free unit, charge ``delay`` µs and release the unit inline.

        ``if not res.hold(us): <grab or acquire, charge us, release>`` is
        the fused form of a critical section that holds nothing but a
        fixed charge.  It succeeds exactly where :meth:`grab` followed by
        :meth:`~repro.sim.core.Environment.fuse` would both succeed: a
        unit is free, nobody queues for one, fusion is not held off, and
        no heap entry is at or before ``now + delay`` (strict).  It then
        counts the grant's and the charge's processed events, advances the
        clock as the release would settle it, and keeps the occupancy
        statistics bit-identical to that grab and release.  Otherwise it
        returns ``False`` and changes nothing.
        """
        if delay < 0:
            raise ValueError(f"negative charge delay: {delay}")
        env = self.env
        if self._in_use < self.capacity and not self._waiters and not env._hold:
            q = env._queue
            if not q or q[0][0] > env._now + env._pending + delay:
                if env._pending_n:
                    env._settle()
                if env._owed:
                    env._owed = 0
                    env._event_count += 1
                # grab's _account(), then release's at the settled clock
                now = env._now
                dt = now - self._last_change
                if dt > 0:
                    self._busy_time += dt * self._in_use
                    self._last_change = now
                env._now = now = now + delay
                dt = now - self._last_change
                if dt > 0:
                    self._busy_time += dt * (self._in_use + 1)
                    self._last_change = now
                env._event_count += 2
                return True
        return False

    def release(self, grant: Grant) -> None:
        if grant.resource is not self:
            raise SimulationError("grant released to the wrong resource")
        if not grant.active:
            raise SimulationError("grant released twice")
        grant.active = False
        self._account()
        if self._waiters:
            ev, next_grant = self._waiters.popleft()
            # hand the unit straight over: in_use stays constant
            ev.succeed(next_grant)
        else:
            self._in_use -= 1
            if self._in_use < 0:  # pragma: no cover - internal invariant
                raise SimulationError(f"negative occupancy on {self.name!r}")


class Mutex(Resource):
    """Capacity-1 resource; models a host-side lock."""

    def __init__(self, env: Environment, name: str = ""):
        super().__init__(env, capacity=1, name=name or f"mutex@{id(self):x}")

    @property
    def locked(self) -> bool:
        return self._in_use > 0
