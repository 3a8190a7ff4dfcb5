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

from typing import Optional, Type

from ..driver.kfd import Kfd
from ..hsa.api import HsaRuntime
from ..memory.os_alloc import OsAllocator
from ..memory.pagetable import PageTable
from ..memory.physical import PhysicalMemory
from ..sim import Environment, RngHub
from ..trace.hsa_trace import HsaTrace
from .params import CostModel

__all__ = ["ApuSystem"]


class ApuSystem:
    """A fully wired single-socket APU simulation.

    ``env_cls`` is the simulation scheduler class: :class:`Environment`
    (charge fusion, bare heap entries, inlined stepping) or a subclass
    such as :class:`~repro.sim.ReferenceEnvironment`, the same engine
    with fusion held off, which the differential tests compare it
    against.
    """

    def __init__(
        self,
        cost: Optional[CostModel] = None,
        seed: int = 0,
        detailed_trace: bool = False,
        env_cls: Type[Environment] = Environment,
    ):
        self.cost = cost or CostModel()
        self.seed = seed
        self.env = env_cls()
        self.rng_hub = RngHub(seed)
        self.physical = PhysicalMemory(
            total_bytes=self.cost.hbm_bytes, frame_bytes=self.cost.page_size
        )
        self.cpu_pt = PageTable(self.cost.page_size, "cpu-pt")
        self.gpu_pt = PageTable(self.cost.page_size, "gpu-pt")
        self.driver = Kfd(self.cost, self.physical, self.cpu_pt, self.gpu_pt)
        self.os_alloc = OsAllocator(
            self.physical, self.cpu_pt, on_unmap=self.driver.mmu_unmap
        )
        self.hsa_trace = HsaTrace(detailed=detailed_trace)
        self.hsa = HsaRuntime(
            self.env, self.cost, self.driver, self.hsa_trace, self.rng_hub
        )
        if self.cost.fault_sigma > 0.0:
            self.driver.stall_jitter = self.rng_hub.jitter(
                "driver.faults",
                sigma=self.cost.fault_sigma,
                scale=self.hsa.speed,
            )
