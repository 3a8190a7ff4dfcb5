"""System assembly: one simulated MI300A socket.

:class:`ApuSystem` wires the full substrate together — simulation
environment, physical HBM, CPU/GPU page tables, driver, OS allocator and
the traced HSA runtime — from a single :class:`~repro.core.params.CostModel`.
The experiments in this reproduction run on a single-socket APU, matching
the paper's setup (§V: "Experiments were performed on an AMD Instinct
MI300A series accelerator with a single socket, with one CPU and one
GPU").
"""

from __future__ import annotations

from typing import Optional

from ..driver.kfd import Kfd
from ..hsa.api import HsaRuntime
from ..memory.os_alloc import OsAllocator
from ..memory.pagetable import PageTable
from ..memory.physical import PhysicalMemory
from ..sim import Environment, Jitter, ReferenceEnvironment, RngHub
from ..trace.hsa_trace import HsaTrace
from .params import CostModel

__all__ = ["ApuSystem"]

_ENGINES = {
    "fast": Environment,
    "reference": ReferenceEnvironment,
}


class ApuSystem:
    """A fully wired single-socket APU simulation.

    ``engine`` selects the simulation scheduler: ``"fast"`` (default —
    charge fusion, event recycling, inlined stepping) or ``"reference"``
    (the retained one-heap-event-per-delay scheduler, the test oracle).
    Both produce bit-identical simulated-time results; the bench
    differential gates it.
    """

    def __init__(
        self,
        cost: Optional[CostModel] = None,
        seed: int = 0,
        detailed_trace: bool = False,
        xnack_enabled: bool = True,
        engine: str = "fast",
    ):
        if engine not in _ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {sorted(_ENGINES)}"
            )
        self.cost = cost or CostModel()
        self.seed = seed
        self.engine = engine
        self.env = _ENGINES[engine]()
        self.rng_hub = RngHub(seed)
        self.physical = PhysicalMemory(
            total_bytes=self.cost.hbm_bytes, frame_bytes=self.cost.page_size
        )
        self.cpu_pt = PageTable(self.cost.page_size, "cpu-pt")
        self.gpu_pt = PageTable(self.cost.page_size, "gpu-pt")
        self.driver = Kfd(
            self.cost,
            self.physical,
            self.cpu_pt,
            self.gpu_pt,
            xnack_enabled=xnack_enabled,
        )
        self.os_alloc = OsAllocator(
            self.physical, self.cpu_pt, on_unmap=self.driver.mmu_unmap
        )
        self.hsa_trace = HsaTrace(detailed=detailed_trace)
        self.hsa = HsaRuntime(
            self.env, self.cost, self.driver, self.hsa_trace, self.rng_hub
        )
        if self.cost.fault_sigma > 0.0:
            self.driver.stall_jitter = Jitter(
                self.rng_hub.stream("driver.faults"),
                sigma=self.cost.fault_sigma,
                scale=self.hsa.speed,
            )

    @classmethod
    def mi300a(
        cls,
        cost: Optional[CostModel] = None,
        seed: int = 0,
        noise: bool = False,
        detailed_trace: bool = False,
    ) -> "ApuSystem":
        """The paper's testbed: one MI300A socket, THP on.

        ``noise=True`` enables the measurement-noise model used by the
        repetition/CoV experiments; deterministic otherwise.
        """
        c = cost or CostModel()
        if noise:
            c = c.with_noise()
        return cls(cost=c, seed=seed, detailed_trace=detailed_trace)

    @property
    def now(self) -> float:
        return self.env.now
