"""The calibrated hardware/software cost model.

Every latency constant used anywhere in the stack lives here, with the
paper observation that pins it.  Units: microseconds, bytes.  All values
refer to 2 MiB (THP) pages unless stated otherwise; the paper enables THP
for every experiment (§V) "so that both configurations work with 2MB page
sizes".

Calibration notes (derived jointly from §V and Tables I–III):

* ``xnack_fault_us_per_page`` ≈ 500 µs / 2 MiB page.  Pins three
  observations at once: 452.ep's MI of "a few million microseconds" for a
  multi-GiB first-touch (≈ 6 k pages), QMCPack S2's total first-touch
  advantage "in the order of a tenth of a second" (≈ 150 pages ≈ 75 ms),
  and the spC/bt per-invocation stack-array penalty small enough that
  Implicit Zero-Copy still wins 7.8×.
* ``prefault_page_us`` ≈ 25 µs / page: 452.ep under Eager Maps pays MM of
  O(1e5) µs for the same ≈ 6 k pages Copy bulk-maps (Table III), and the
  per-page cost must be well below the XNACK replay cost for Eager to beat
  IZC on bulk first touch (§V.A.4).
* ``prefault_call_us`` ≈ 2.5 µs: QMCPack issues >1.5 M
  ``svm_attributes_set`` calls costing "a few seconds" total (§V.A.4).
* ``pool_alloc_page_us`` ≈ 100 µs / *new* page: spC's GB-scale allocations
  take tens of ms each ("kernel executions … up to 6% the time of a single
  allocation"), and ep's one-time multi-GiB pool allocation gives Copy an
  MM of O(1e5) µs (Table III).  Re-allocating memory the ROCr pool already
  holds costs only ``pool_alloc_base_us``: Table I's pool-allocate latency
  ratio of 7.41 with a 1200× call-count ratio requires steady-state Copy
  allocations to be ~100× cheaper than first-time ones.
* ``copy_base_us`` ≈ 2.5 µs and ``copy_bytes_per_us`` ≈ 1.4e6 B/µs
  (≈ 1.4 TB/s effective HBM-to-HBM SDMA): Table I's async-copy latency
  totals imply an average of ~3 µs per (mostly tiny) QMCPack copy, while
  GB-scale SPEC transfers land at ~1 ms/GiB-class times ("HBM-to-HBM
  copies", §IV.A).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..memory.layout import GIB, PAGE_2M

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """All latency/bandwidth constants for the simulated MI300A socket."""

    # -- geometry ----------------------------------------------------------
    page_size: int = PAGE_2M            #: THP on (paper §V)
    hbm_bytes: int = 128 * GIB          #: MI300A socket HBM capacity

    # -- GPU page-fault path (XNACK replay, §III.B) -------------------------
    xnack_fault_us_per_page: float = 500.0
    #: pipeline restart tax per kernel that faulted at all
    xnack_kernel_entry_us: float = 10.0

    # -- Eager-Maps prefault syscall (§IV.D) ----------------------------------
    prefault_call_us: float = 1.2       #: per svm_attributes_set invocation
    prefault_page_us: float = 25.0      #: per page newly added to GPU PT
    prefault_verify_page_us: float = 0.03  #: per already-present page check

    # -- ROCr pool allocator (§IV.A) -----------------------------------------
    pool_alloc_base_us: float = 10.0    #: allocation served from pool cache
    pool_alloc_page_us: float = 100.0   #: per page of new driver memory
    pool_free_base_us: float = 5.0
    pool_release_page_us: float = 4.0   #: per page returned to the driver
    #: blocks larger than this are released to the driver on free rather
    #: than retained in the pool (GB-scale spC/bt allocations stay slow)
    pool_retain_max_bytes: int = 512 * 1024 * 1024

    # -- SDMA copies -----------------------------------------------------------
    copy_base_us: float = 2.5
    copy_bytes_per_us: float = 1.4e6    #: ≈1.4 TB/s effective HBM↔HBM
    n_sdma_engines: int = 2

    # -- kernel dispatch / signals ---------------------------------------------
    dispatch_us: float = 4.0            #: packet write + doorbell
    signal_wait_base_us: float = 1.0    #: scacquire bookkeeping per wait
    signal_handler_us: float = 1.5      #: async-handler completion callback
    n_gpu_queues: int = 8               #: concurrently running kernels (one per XCD-pair queue)

    # -- host-side software costs ------------------------------------------------
    syscall_base_us: float = 1.0
    omp_runtime_call_us: float = 0.5    #: libomptarget entry bookkeeping (Copy path)
    #: zero-copy mapping bookkeeping: presence/refcount lookup only, no
    #: allocation decision or transfer submission under the lock — "a
    #: smaller number of calls to the runtime" (§V.A.2)
    zc_map_call_us: float = 0.2
    os_populate_page_us: float = 1.0    #: host-side page populate at malloc
    usm_indirection_us: float = 0.05    #: per-kernel double-indirection tax
    #: memory-manager (libomptarget) cache threshold: allocations at or
    #: below this size are served from per-size buckets after first use
    memmgr_threshold_bytes: int = 1 * 1024 * 1024
    memmgr_enabled: bool = True

    # -- measurement noise (enabled for experiment runs, zero for unit tests)
    jitter_sigma: float = 0.0      #: per-operation lognormal sigma
    run_sigma: float = 0.0         #: per-run correlated machine factor
    fault_sigma: float = 0.0       #: XNACK fault-service variance
    syscall_tail_p: float = 0.0
    syscall_tail_scale_us: float = 0.0

    def with_noise(self) -> "CostModel":
        """A copy with measurement noise enabled.

        The values reproduce the paper's CoV regime (§V.A.1): per-run
        correlated machine noise gives every configuration a baseline CoV
        of ≈0.03; high-variance XNACK fault servicing pushes the
        unified-memory configurations toward ≈0.08–0.10; and a rare
        heavy tail on syscalls produces the order-of-magnitude Eager-Maps
        outliers the paper attributes to OS interference (CoV 4.2 at
        S32 / 8 threads).
        """
        return replace(
            self,
            jitter_sigma=0.01,
            run_sigma=0.03,
            fault_sigma=0.9,
            syscall_tail_p=2e-6,
            syscall_tail_scale_us=2.5e5,
        )

    @classmethod
    def discrete_gpu(cls) -> "CostModel":
        """A discrete-GPU deployment (PCIe-attached, e.g. MI210-class).

        Used for the performance-portability story of §IV.C: an
        application built *without* the USM pragma runs as Copy here and
        as Implicit Zero-Copy on the APU.  Relative to the APU model:

        * host↔device copies cross PCIe (~45 GB/s, higher latency) instead
          of HBM↔HBM;
        * device (VRAM) pool allocations skip the unified-memory page
          machinery and are cheaper per page;
        * XNACK-style unified memory exists but each replayed page
          migrates over PCIe — far more expensive than on the APU (the
          oversubscription cliffs of the paper's related work [18], [19]).
        """
        return cls(
            copy_base_us=8.0,
            copy_bytes_per_us=4.5e4,       # ≈45 GB/s effective PCIe
            pool_alloc_page_us=25.0,
            xnack_fault_us_per_page=3000.0,
            prefault_page_us=1500.0,       # host-initiated page migration
        )

    def copy_us(self, nbytes: int) -> float:
        """SDMA transfer duration for ``nbytes``."""
        return self.copy_base_us + nbytes / self.copy_bytes_per_us

    def describe(self) -> Dict[str, float]:
        """Flat dict of all constants (for experiment metadata)."""
        out = {}
        for name in self.__dataclass_fields__:
            out[name] = getattr(self, name)
        return out
