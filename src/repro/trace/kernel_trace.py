"""Kernel-level tracing and the MM/MI overhead ledger.

Table III of the paper decomposes runtime overheads with
``LIBOMPTARGET_KERNEL_TRACE=3``:

* **MM** (memory management): GPU-specific memory allocation and CPU-GPU
  memory copies issued by the OpenMP runtime;
* **MI** (memory initialization): first-touch cost on the GPU — the
  XNACK-replay stalls kernels absorb while running.

The :class:`RunLedger` accumulates both, plus the Eager-Maps prefault
time (which the paper folds into MM for the Eager row of Table III), the
pure compute time, and host-side blocked time.  Ledgers are cheap —
plain float adds — so every run carries one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import with hsa.api
    from ..hsa.api import KernelRecord

__all__ = ["RunLedger", "KernelTrace"]


@dataclass
class RunLedger:
    """Per-run overhead decomposition (all µs of summed durations)."""

    mm_alloc_us: float = 0.0    #: pool allocate/free durations
    mm_copy_us: float = 0.0     #: mapping-induced transfer durations
    prefault_us: float = 0.0    #: svm_attributes_set durations (Eager)
    mi_us: float = 0.0          #: XNACK fault stalls inside kernels
    kernel_compute_us: float = 0.0
    wait_us: float = 0.0        #: host time blocked in signal waits
    n_kernels: int = 0
    n_map_enters: int = 0
    n_map_exits: int = 0
    n_faulted_pages: int = 0
    h2d_bytes: int = 0          #: mapping-induced host-to-device bytes
    d2h_bytes: int = 0          #: mapping-induced device-to-host bytes
    shadow_bytes: int = 0       #: global shadow-copy refresh bytes (IZC/Eager)

    @property
    def mm_us(self) -> float:
        """Total memory-management overhead (Table III's MM).

        For Eager Maps the prefault syscalls *are* the mapping cost, so
        they count here; for other configurations ``prefault_us`` is zero.
        """
        return self.mm_alloc_us + self.mm_copy_us + self.prefault_us

    def merge(self, other: "RunLedger") -> "RunLedger":
        out = RunLedger()
        for f in self.__dataclass_fields__:
            setattr(out, f, getattr(self, f) + getattr(other, f))
        return out

    def summary(self) -> dict:
        return {
            "MM_us": self.mm_us,
            "MM_alloc_us": self.mm_alloc_us,
            "MM_copy_us": self.mm_copy_us,
            "prefault_us": self.prefault_us,
            "MI_us": self.mi_us,
            "kernel_compute_us": self.kernel_compute_us,
            "wait_us": self.wait_us,
            "n_kernels": self.n_kernels,
            "n_faulted_pages": self.n_faulted_pages,
            "h2d_bytes": self.h2d_bytes,
            "d2h_bytes": self.d2h_bytes,
            "shadow_bytes": self.shadow_bytes,
        }


class KernelTrace:
    """Optional per-kernel record collection (LIBOMPTARGET_KERNEL_TRACE).

    Disabled by default for big runs; when enabled it keeps every
    :class:`KernelRecord` so analyses can ask questions like "how much
    fault stall did the first hundred launches absorb" (§V.A.4).
    """

    def __init__(self, enabled: bool = False, max_records: Optional[int] = None):
        self.enabled = enabled
        self.max_records = max_records
        self.records: List["KernelRecord"] = []
        self.dropped = 0

    def record(self, rec: "KernelRecord") -> None:
        if not self.enabled:
            return
        if self.max_records is not None and len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append(rec)

    def total_fault_stall_us(self, first_n: Optional[int] = None) -> float:
        recs = self.records[:first_n] if first_n else self.records
        return sum(r.fault_stall_us for r in recs)

    def __len__(self) -> int:
        return len(self.records)
