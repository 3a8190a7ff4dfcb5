"""The per-config HSA emission model MapCost predicts against.

This is the static mirror of what the runtime stack actually emits:

* device init (:mod:`repro.omp.runtime`): three ``memory_async_copy``
  calls completed by one barrier ``signal_wait_scacquire``, nine
  runtime pool allocations plus ten per registered host thread;
* the libomptarget MemoryManager (:mod:`repro.omp.memmgr`): device
  allocations at or below the threshold are served from power-of-two
  buckets after first use — steady-state small mappings never reach HSA;
* the policies (:mod:`repro.core.policies`): which map operations turn
  into copies, handlers, barrier waits, prefault ioctls or nothing at
  all under each of the four configurations.

Counter keys come in two precision classes: ``EXACT_KEYS`` (HSA call
counts by API name, map-op counts, kernel launches) must be bit-exact
against simulated telemetry for the clean registry workloads;
``BOUNDED_KEYS`` (copy bytes, prefaulted/faulted pages, shadow traffic)
only need interval containment.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ....core.params import CostModel

__all__ = [
    "POOL_ALLOC",
    "POOL_FREE",
    "ASYNC_COPY",
    "ASYNC_HANDLER",
    "SCACQUIRE",
    "SVM_SET",
    "MEMORY_COPY",
    "HSA_KEYS",
    "EXACT_KEYS",
    "BOUNDED_KEYS",
    "ALL_KEYS",
    "PAGE_SIZE",
    "MEMMGR_THRESHOLD",
    "device_init_counts",
    "size_class",
    "pages_of",
]

#: the one deployment the static model prices, shared with the simulator:
#: the default :class:`~repro.core.params.CostModel`'s GPU page size and
#: MemoryManager threshold (the model assumes the memory manager is on)
PAGE_SIZE = CostModel().page_size
MEMMGR_THRESHOLD = CostModel().memmgr_threshold_bytes

# traced HSA API names (repro.hsa.api / ZeroCopyPolicy.global_update)
POOL_ALLOC = "memory_pool_allocate"
POOL_FREE = "memory_pool_free"
ASYNC_COPY = "memory_async_copy"
ASYNC_HANDLER = "signal_async_handler"
SCACQUIRE = "signal_wait_scacquire"
SVM_SET = "svm_attributes_set"
MEMORY_COPY = "memory_copy"

HSA_KEYS: Tuple[str, ...] = (
    POOL_ALLOC,
    POOL_FREE,
    ASYNC_COPY,
    ASYNC_HANDLER,
    SCACQUIRE,
    SVM_SET,
    MEMORY_COPY,
)

#: must match simulated telemetry exactly (singleton intervals)
EXACT_KEYS: Tuple[str, ...] = HSA_KEYS + ("map_enters", "map_exits", "kernels")

#: must contain the simulated value (interval semantics)
BOUNDED_KEYS: Tuple[str, ...] = (
    "h2d_bytes",
    "d2h_bytes",
    "shadow_bytes",
    "pages_prefaulted",
    "pages_faulted",
)

ALL_KEYS: Tuple[str, ...] = EXACT_KEYS + BOUNDED_KEYS

#: device-init emission (repro.omp.runtime._INIT_*): three image copies
#: + one barrier wait + nine runtime pool allocations, then ten pool
#: allocations per registered host thread
_INIT_IMAGE_COPIES = 3
_INIT_POOL_ALLOCS = 9
_PER_THREAD_POOL_ALLOCS = 10


def device_init_counts(n_threads: int) -> Dict[str, int]:
    """Config-independent HSA calls issued before the first map op."""
    return {
        ASYNC_COPY: _INIT_IMAGE_COPIES,
        SCACQUIRE: 1,
        POOL_ALLOC: _INIT_POOL_ALLOCS + _PER_THREAD_POOL_ALLOCS * n_threads,
    }


def size_class(nbytes: int) -> int:
    """MemoryManager bucket granularity: next power of two >= nbytes."""
    size = 1
    while size < nbytes:
        size <<= 1
    return size


def pages_of(nbytes: int) -> int:
    """GPU page-table pages a page-aligned allocation of ``nbytes`` spans."""
    return max(1, -(-nbytes // PAGE_SIZE)) if nbytes > 0 else 0
