"""Workload infrastructure: fidelity scaling and the workload protocol.

A *workload* is a factory producing a thread body — a generator function
``body(th: OmpThread, tid: int)`` — plus metadata.  The same body runs
unmodified under every runtime configuration; that is the whole point.

Fidelity
--------
The paper's runs execute for minutes; a discrete-event simulation of the
full call stream is feasible but slow, so workloads scale their
steady-state iteration counts by a fidelity preset:

* ``full``  — paper-scale call counts (used for the Table I regeneration,
  where absolute call counts are the result);
* ``bench`` — ~1/20 of full (figures and ratio tables; ratios are
  insensitive to the scale because both numerator and denominator shrink
  together, which ``tests/test_workload_qmcpack.py`` verifies);
* ``test``  — ~1/100 of full (unit/integration tests).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator

from ..omp.api import OmpThread

__all__ = ["Fidelity", "WorkloadResult", "Workload", "ThreadBody"]

ThreadBody = Callable[[OmpThread, int], Generator]


class Fidelity(enum.Enum):
    """Steady-state scale presets."""

    TEST = "test"
    BENCH = "bench"
    FULL = "full"

    @property
    def scale(self) -> float:
        return {Fidelity.TEST: 0.01, Fidelity.BENCH: 0.05, Fidelity.FULL: 1.0}[self]

    def steps(self, full_steps: int) -> int:
        """Scaled step count, never below 2."""
        return max(2, round(full_steps * self.scale))


@dataclass
class WorkloadResult:
    """Functional outputs a workload wants checked across configurations."""

    values: Dict[str, object] = field(default_factory=dict)

    def put(self, key: str, value) -> None:
        self.values[key] = value

    def get(self, key: str):
        return self.values[key]


class Workload:
    """Base class: subclasses implement :meth:`make_body`.

    ``outputs`` is filled during the run with functional results used by
    the cross-configuration equivalence tests.
    """

    name: str = "workload"
    n_threads: int = 1

    def __init__(self, fidelity: Fidelity = Fidelity.BENCH):
        self.fidelity = fidelity
        self.outputs = WorkloadResult()

    def prepare(self, runtime) -> None:
        """Program-image setup before the run (``declare_target`` globals);
        a no-op unless overridden."""

    def make_body(self) -> ThreadBody:  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        return {"name": self.name, "n_threads": self.n_threads,
                "fidelity": self.fidelity.value}
