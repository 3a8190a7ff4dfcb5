"""AMDGPU kernel driver model ("KFD"): the GPU side of the page tables.

Implements the three translation-installation mechanisms the paper
distinguishes (§III.B, §IV):

* :meth:`service_xnack_faults` — the XNACK-replay protocol.  A GPU thread
  touching an untranslated page stalls while the driver walks the CPU page
  table and installs the entry into the GPU table.  "This cost is one-off
  per page" — subsequent touches are free.  The cost is charged to the
  running kernel by the OpenMP target layer.
* :meth:`bulk_map_new_memory` — allocation of "device" memory through the
  ROCr pool: the driver allocates HBM frames and installs GPU translations
  in bulk, XNACK-disabled style, so kernels touching pool memory never
  fault (this is why Copy has MI = 0 in Table III).
* :meth:`prefault` — the Eager-Maps path: a host-initiated, privileged
  update that walks the CPU table and inserts any missing entries;
  re-prefaulting present pages still costs a (cheaper) verification pass.

Freeing host memory triggers :meth:`mmu_unmap` (an mmu-notifier analogue):
GPU translations for the range are shot down, which is what forces
re-faulting of 452.ep's re-allocated buffers and spC/bt's per-invocation
stack arrays.

All four mechanisms operate at *run* granularity: the missing portion of
a range is computed as coalesced extents (one ``bisect`` walk), CPU
frames for each extent are gathered in one pass, and GPU translations are
installed or shot down per extent.  Fault counts, per-page counters, and
stall/work microseconds are identical to the historical page-by-page
walk — only the number of Python-level operations changes.

The driver itself never touches the simulation clock: every method
returns *durations* (stall/work microseconds) that the calling layer
charges, which is what lets the HSA facade fuse them through
``env.fuse(us)`` without this module knowing about the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.params import CostModel
from ..memory.layout import DEVICE_POOL_BASE, AddressRange, align_up
from ..memory.pagetable import MapOrigin, PageTable
from ..memory.physical import PhysicalMemory

__all__ = ["Kfd", "GpuMemoryError", "PrefaultResult", "FaultResult"]


class GpuMemoryError(RuntimeError):
    """GPU accessed untranslated memory with XNACK disabled (fatal on HW)."""


@dataclass(frozen=True)
class PrefaultResult:
    """Outcome of one prefault ioctl."""

    n_new: int
    n_present: int
    work_us: float  #: kernel-side work excluding the syscall base cost


@dataclass(frozen=True)
class FaultResult:
    """Outcome of XNACK servicing for one kernel launch."""

    n_faults: int
    stall_us: float  #: added to the kernel's execution time


class Kfd:
    """Driver state: GPU page table + device-pool VA window."""

    def __init__(
        self,
        cost: CostModel,
        physical: PhysicalMemory,
        cpu_pt: PageTable,
        gpu_pt: PageTable,
        xnack_enabled: bool = True,
    ):
        self.cost = cost
        self.physical = physical
        self.cpu_pt = cpu_pt
        self.gpu_pt = gpu_pt
        self.xnack_enabled = xnack_enabled
        #: optional jitter applied to XNACK stall costs (fault servicing on
        #: real systems has high variance: interrupt coalescing, page-table
        #: walk contention).  Set by ApuSystem when noise is enabled.
        self.stall_jitter = None
        #: optional ``(installed_frames, stall_us) -> stall_us`` hook: the
        #: multi-socket card charges the Infinity Fabric surcharge for
        #: faults resolved to a remote socket's frames here.  ``None`` (the
        #: default) keeps the single-socket cost path byte-identical.
        self.fault_cost_adjuster = None
        self.page_size = cost.page_size
        self._pool_cursor = DEVICE_POOL_BASE
        # counters
        self.xnack_faults_serviced = 0
        self.pages_prefaulted = 0
        self.pages_bulk_mapped = 0
        self.shootdowns = 0

    # -- shared plumbing ----------------------------------------------------
    def _cpu_frames(self, rng: AddressRange, what: str) -> List[int]:
        """CPU-table frames for every page of ``rng``; raises if any page
        has no CPU translation (the GPU cannot replay what the OS never
        mapped)."""
        frames: List[int] = []
        cursor = rng.page_span(self.page_size)[0]
        for start, run_frames, _ in self.cpu_pt.present_runs(rng):
            if start != cursor:
                break
            frames.extend(run_frames)
            cursor = start + len(run_frames) * self.page_size
        if cursor < rng.end:
            raise GpuMemoryError(
                f"{what} 0x{cursor:x} with no CPU translation"
            )
        return frames

    # -- XNACK replay (GPU-initiated) ------------------------------------
    def service_xnack_faults(self, ranges: List[AddressRange]) -> FaultResult:
        """Install translations for every missing page of the given host
        ranges, as a kernel touching them would.  Returns the stall time to
        charge to the kernel.  Raises if XNACK is disabled and a
        translation is missing — on hardware this is a fatal memory
        violation, and catching it in tests guards the configuration
        matrix (Eager Maps must have prefaulted everything).
        """
        n = 0
        installed: List[int] = []
        for rng in ranges:
            for gap in self.gpu_pt.missing_runs(rng):
                if not self.xnack_enabled:
                    raise GpuMemoryError(
                        f"GPU touched unmapped page 0x{gap.start:x} "
                        "with XNACK disabled"
                    )
                frames = self._cpu_frames(gap, "GPU touched page")
                if self.fault_cost_adjuster is not None:
                    installed.extend(frames)
                n += self.gpu_pt.install_range(
                    gap, frames, MapOrigin.XNACK_REPLAY
                )
        self.xnack_faults_serviced += n
        stall = 0.0
        if n:
            stall = self.cost.xnack_kernel_entry_us + n * self.cost.xnack_fault_us_per_page
            if self.stall_jitter is not None:
                stall = self.stall_jitter.apply(stall)
            if self.fault_cost_adjuster is not None:
                stall = self.fault_cost_adjuster(installed, stall)
        return FaultResult(n, stall)

    def count_missing_pages(self, ranges: List[AddressRange]) -> int:
        """How many pages a kernel touching these ranges would fault on."""
        return sum(self.gpu_pt.coverage(rng)[1] for rng in ranges)

    def has_missing_pages(self, ranges: List[AddressRange]) -> bool:
        """Early-exit presence probe: True as soon as any page of any
        range lacks a GPU translation (the Eager-Maps fast/slow path
        decision only needs the boolean, not the count)."""
        return any(self.gpu_pt.coverage(rng)[1] for rng in ranges)

    # -- ROCr pool path (bulk, XNACK-disabled style) -----------------------
    def bulk_map_new_memory(self, nbytes: int) -> Tuple[AddressRange, float]:
        """Allocate fresh driver memory for the ROCr pool.

        Allocates frames, installs GPU translations in bulk (one run),
        and returns the new range plus the driver-side work time
        (per-page: page-table writes + zeroing).
        """
        if nbytes <= 0:
            raise ValueError(f"pool growth must be positive, got {nbytes}")
        size = align_up(nbytes, self.page_size)
        rng = AddressRange(self._pool_cursor, nbytes)
        self._pool_cursor += size
        frames = self.physical.alloc_frames(rng.n_pages(self.page_size))
        n_pages = self.gpu_pt.install_range(rng, frames, MapOrigin.BULK_ALLOC)
        self.pages_bulk_mapped += n_pages
        return rng, n_pages * self.cost.pool_alloc_page_us

    def release_pool_memory(self, rng: AddressRange) -> float:
        """Return pool memory to the driver; GPU translations die.

        One batched evict — no per-page membership test + re-pop."""
        n, frames = self.gpu_pt.evict_range_frames(rng)
        self.physical.free_frames(frames)
        return n * self.cost.pool_release_page_us

    # -- Eager-Maps prefault ioctl -----------------------------------------
    def prefault(self, rng: AddressRange) -> PrefaultResult:
        """Host-initiated GPU page-table prefault over a host range.

        Missing extents are walked in the CPU table and installed; present
        pages cost a (syscall-side) verification.  The caller wraps this
        in a traced ``svm_attributes_set`` syscall.
        """
        n_new = 0
        for gap in self.gpu_pt.missing_runs(rng):
            frames = self._cpu_frames(gap, "prefault of page")
            n_new += self.gpu_pt.install_range(gap, frames, MapOrigin.PREFAULT)
        n_present = rng.n_pages(self.page_size) - n_new
        self.pages_prefaulted += n_new
        work = (
            n_new * self.cost.prefault_page_us
            + n_present * self.cost.prefault_verify_page_us
        )
        return PrefaultResult(n_new, n_present, work)

    # -- mmu notifier ---------------------------------------------------------
    def mmu_unmap(self, rng: AddressRange) -> None:
        """Shoot down GPU translations when host memory is unmapped.

        Frames are owned (and freed) by the OS allocator for host memory;
        the driver only drops its translations.
        """
        n, _ = self.gpu_pt.evict_range_frames(rng)
        self.shootdowns += n
