"""Shared-resource primitives for the simulation engine.

Models everything in the stack that serializes concurrent activity:

* :class:`Resource` — a counted resource with FIFO queuing.  Used for GPU
  compute queues (capacity = number of concurrently running kernels the
  hardware sustains for our workloads), SDMA copy engines, and the
  page-fault service unit.
* :class:`Mutex` — capacity-1 convenience wrapper.  Used for the
  libomptarget/ROCr allocation lock that makes Legacy Copy scale poorly
  with host threads (paper §V.A.2).

Inside a process the idiomatic pattern is explicit::

    grant = res.grab() or (yield res)
    try:
        ...
    finally:
        res.release(grant)

:meth:`Resource.grab` takes a free unit inline, without a heap event,
where a unit is free, nobody queues for one and
:meth:`~repro.sim.core.Environment.fuse` accepts the grant as a zero-µs
charge; otherwise the process yields the resource itself and waits
through :meth:`Resource.request`, which pushes its :class:`Grant` as a
bare heap entry where :meth:`Resource.acquire`'s event would have been.
``acquire()`` stays the public :class:`~repro.sim.core.Event` form (for
workloads, ``AllOf`` over grants and tests).  A critical section that
holds nothing but a fixed charge fuses as a whole: ``if not res.hold(us):``
the pattern above with ``env.fuse(us)`` inside.  :meth:`Resource.hold`
is the same free-unit check plus one ``fuse`` that counts the grant and
the charge; it never calls :meth:`Resource.release`, so a tracer
wrapping ``release`` sees only that slow path.  Only ``fuse`` decides
whether a step may fuse: this module touches no private engine field.

Engine callback chains (the HSA copies and kernels) take a unit with
``res.grab()`` or else :meth:`Resource.request`, which runs
``then(grant)`` from a bare heap entry queued where the grant's event
would have been: at once on a free unit, else by the handing ``release``.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Optional

from .core import Environment, Event, SimulationError

__all__ = ["Resource", "Mutex", "Grant"]


class Grant:
    """Token proving ownership of one unit of a resource.

    It is also the trigger of the bare grant wait it ends: a process
    resumed by it reads a success carrying the grant itself.
    """

    __slots__ = ("resource", "active")

    _ok = True
    _value = property(lambda self: self)

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
        # (event, grant) per acquire(), (bound callback, None) per request():
        # (_noop, None) once Process.interrupt detached a waiting process
        self._waiters: Deque[tuple] = deque()

    # -- stats -------------------------------------------------------------
    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    # -- acquire/release -----------------------------------------------------
    def acquire(self) -> Event:
        """Return an event firing with a :class:`Grant` when a unit frees."""
        ev = self.env.event()
        grant = Grant(self)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            ev.succeed(grant)
        else:
            self._waiters.append((ev, grant))
        return ev

    def request(self, then: Callable[[Grant], None]) -> None:
        """:meth:`acquire` for a callback: ``then(grant)`` runs from a bare
        heap entry (``Environment._schedule_call``) queued where the
        grant's event would have been."""
        call = partial(then, Grant(self))
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            self.env._schedule_call(call)
        else:
            self._waiters.append((call, None))

    def grab(self) -> Optional[Grant]:
        """Take a free unit inline: ``res.grab() or (yield res)``.

        Succeeds where a unit is free, nobody queues for one and
        ``env.fuse(0.0)`` accepts the grant's processed event (no heap
        entry at or before ``now``, fusion not held off).  Otherwise it
        returns ``None`` and changes nothing.
        """
        if self._in_use < self.capacity and not self._waiters and self.env.fuse(0.0):
            self._in_use += 1
            return Grant(self)
        return None

    def hold(self, delay: float) -> bool:
        """Take a free unit, charge ``delay`` µs and release the unit inline.

        ``if not res.hold(us): <grab or acquire, charge us, release>`` is
        the fused form of a critical section that holds nothing but a
        fixed charge.  It succeeds where a unit is free, nobody queues for
        one and ``env.fuse(delay, 2)`` accepts the grant's and the
        charge's events, so exactly where :meth:`grab` followed by
        ``fuse(delay)`` would.  Otherwise it returns ``False`` and changes
        nothing.
        """
        if delay < 0:
            raise ValueError(f"negative charge delay: {delay}")
        return self._in_use < self.capacity and not self._waiters and self.env.fuse(delay, 2)

    def release(self, grant: Grant) -> None:
        if grant.resource is not self:
            raise SimulationError("grant released to the wrong resource")
        if not grant.active:
            raise SimulationError("grant released twice")
        grant.active = False
        if self._waiters:
            # hand the unit straight over: in_use stays constant
            waiter, next_grant = self._waiters.popleft()
            if next_grant is None:  # a request(): the grant is bound in
                self.env._schedule_call(waiter)
            else:
                waiter.succeed(next_grant)
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
