"""libomptarget's device MemoryManager: a bucket cache above HSA.

The real OpenMP runtime interposes a memory manager between mapping code
and the ROCr pool: device allocations up to a size threshold are served
from per-size-class free lists after first use, so steady-state small
mappings never reach HSA at all.  Allocations above the threshold go
straight to the pool.

Observable consequences reproduced here:

* small repeated map/unmap cycles stop appearing in rocprof traces after
  warm-up (their ``memory_pool_allocate`` count stays flat);
* Table I's Copy pool-allocate count is dominated by the allocations that
  *exceed* the threshold (QMCPack's per-step walker scratch) — which is
  also why the count barely moves between 1 and 8 threads even though the
  kernel count grows 8×.

The threshold lives in :class:`~repro.core.params.CostModel`
(``memmgr_threshold_bytes``); ``memmgr_enabled=False`` disables the cache
entirely (ablation).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.params import CostModel
from ..hsa.api import HsaRuntime
from ..memory.layout import AddressRange

__all__ = ["MemoryManager"]


def _size_class(nbytes: int) -> int:
    """Next power of two >= nbytes (the manager's bucket granularity)."""
    size = 1
    while size < nbytes:
        size <<= 1
    return size


class MemoryManager:
    """Per-device small-allocation cache (libomptarget MemoryManagerTy)."""

    def __init__(self, hsa: HsaRuntime, cost: CostModel, enabled: bool = True):
        self.hsa = hsa
        self.cost = cost
        self.enabled = enabled
        self.threshold = cost.memmgr_threshold_bytes
        self._buckets: Dict[int, List[AddressRange]] = {}
        #: block backing size by start address (for free routing)
        self._backing: Dict[int, Tuple[int, bool]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.passthrough = 0

    def allocate(self, nbytes: int):
        """(generator) Allocate device memory for a mapping.

        Small sizes hit the bucket cache (no HSA call after warm-up);
        large sizes pass straight through to the traced pool allocation.
        """
        if nbytes <= 0:
            raise ValueError(f"device allocation must be positive, got {nbytes}")
        if not self.enabled or nbytes > self.threshold:
            self.passthrough += 1
            rng = yield from self.hsa.memory_pool_allocate(nbytes)
            self._backing[rng.start] = (nbytes, False)
            return rng
        bucket = _size_class(nbytes)
        free = self._buckets.get(bucket)
        if free:
            block = free.pop()
            self.cache_hits += 1
            # cache hit is pure host-side bookkeeping
            yield self.hsa.env.charge(self.cost.zc_map_call_us)
            rng = AddressRange(block.start, nbytes)
            self._backing[rng.start] = (bucket, True)
            return rng
        self.cache_misses += 1
        block = yield from self.hsa.memory_pool_allocate(bucket)
        rng = AddressRange(block.start, nbytes)
        self._backing[rng.start] = (bucket, True)
        return rng

    def free(self, rng: AddressRange):
        """(generator) Release a mapping's device memory."""
        entry = self._backing.pop(rng.start, None)
        if entry is None:
            raise ValueError(f"memory manager free of unknown range {rng}")
        backing, cached = entry
        if cached:
            self._buckets.setdefault(backing, []).append(
                AddressRange(rng.start, backing)
            )
            yield self.hsa.env.charge(self.cost.zc_map_call_us)
            return
        yield from self.hsa.memory_pool_free(AddressRange(rng.start, backing))

    @property
    def cached_bytes(self) -> int:
        return sum(size * len(blocks) for size, blocks in self._buckets.items())
