"""Deterministic discrete-event simulation engine (simpy-like, from scratch).

Public surface:

* :class:`Environment`, :class:`Event`, :class:`Completion`, :class:`Timeout`,
  :class:`Process`, :class:`AllOf` — the core engine (``repro.sim.core``),
  whose heap entries all have the one shape ``(time, seq, fn)``.
* :class:`ReferenceEnvironment` — the same engine with fusion held off,
  the oracle of the fused-vs-reference differential tests.
* :class:`Resource`, :class:`Mutex` — contention primitives
  (``repro.sim.resources``).
* :class:`RngHub`, :class:`Jitter` — reproducible noise (``repro.sim.rng``).
"""

from .core import (
    ENGINE_VERSION,
    AllOf,
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
