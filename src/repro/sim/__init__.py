"""Deterministic discrete-event simulation engine (simpy-like, from scratch).

Public surface:

* :class:`Environment`, :class:`Event`, :class:`Completion`, :class:`Timeout`,
  :class:`Process`, :class:`AllOf`, :class:`AnyOf` — the core engine (``repro.sim.core``).
* :class:`ReferenceEnvironment` — the retained pre-fast-path scheduler
  used by the ``repro bench`` fused-vs-reference differential.
* :class:`Resource`, :class:`Mutex` — contention primitives
  (``repro.sim.resources``).
* :class:`RngHub`, :class:`Jitter` — reproducible noise (``repro.sim.rng``).
"""

from .core import (
    ENGINE_VERSION,
    AllOf,
    AnyOf,
    Completion,
    Environment,
    Event,
    Interrupt,
    Process,
    ReferenceEnvironment,
    SimulationError,
    Timeout,
)
from .resources import Grant, Mutex, Resource
from .rng import Jitter, RngHub

__all__ = [
    "ENGINE_VERSION",
    "AllOf",
    "AnyOf",
    "Completion",
    "Environment",
    "Event",
    "Grant",
    "Interrupt",
    "Jitter",
    "Mutex",
    "Process",
    "ReferenceEnvironment",
    "Resource",
    "RngHub",
    "SimulationError",
    "Timeout",
]
