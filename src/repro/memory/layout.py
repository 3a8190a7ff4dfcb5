"""Address-space geometry: pages, alignment, virtual address ranges.

The MI300A exposes one physical HBM store to both CPU and GPU, but the
*virtual* layout still matters: the paper's mechanisms are all phrased in
terms of pages (XNACK replay is per page, prefaulting is per page, THP
changes the page size both configurations operate at).  Everything here is
pure arithmetic — no simulation time, no state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "PAGE_4K",
    "PAGE_2M",
    "AddressRange",
    "align_up",
    "align_down",
    "page_base",
    "page_span",
    "pages_in",
    "HOST_HEAP_BASE",
    "HOST_STACK_BASE",
    "DEVICE_POOL_BASE",
]

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Base (small) page size used when Transparent Huge Pages are off.
PAGE_4K = 4 * KIB
#: Huge page size; the paper runs all experiments with THP on (§V).
PAGE_2M = 2 * MIB

#: Virtual regions.  Host OS allocations (malloc/mmap) grow upward from the
#: heap base; per-thread stack allocations live in a distinct region so the
#: stack-reuse semantics of spC/bt are visible in traces; ROCr "device"
#: pool allocations get their own window, mirroring how the real driver
#: carves GPU VA space even though the backing store is the same HBM.
HOST_HEAP_BASE = 0x7F00_0000_0000
HOST_STACK_BASE = 0x7FFF_0000_0000
DEVICE_POOL_BASE = 0x7400_0000_0000


def align_up(value: int, alignment: int) -> int:
    """Smallest multiple of ``alignment`` that is >= ``value``."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)


def align_down(value: int, alignment: int) -> int:
    """Largest multiple of ``alignment`` that is <= ``value``."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return value & ~(alignment - 1)


def page_base(addr: int, page_size: int) -> int:
    """Base address of the page containing ``addr``."""
    return align_down(addr, page_size)


def page_span(start: int, nbytes: int, page_size: int) -> tuple[int, int]:
    """(first_page_base, n_pages) covering ``[start, start+nbytes)``.

    A zero-length range covers zero pages.  The alignment arithmetic is
    inline: this sits on every page-table walk.
    """
    if nbytes < 0:
        raise ValueError(f"negative span: {nbytes}")
    if page_size <= 0 or page_size & (page_size - 1):
        raise ValueError(f"alignment must be a power of two, got {page_size}")
    mask = ~(page_size - 1)
    first = start & mask
    if nbytes == 0:
        return (first, 0)
    return (first, (((start + nbytes - 1) & mask) - first) // page_size + 1)


def pages_in(start: int, nbytes: int, page_size: int) -> Iterator[int]:
    """Iterate the base addresses of all pages overlapping the range."""
    first, count = page_span(start, nbytes, page_size)
    for i in range(count):
        yield first + i * page_size


@dataclass(frozen=True)
class AddressRange:
    """A half-open virtual address interval ``[start, start + nbytes)``."""

    start: int
    nbytes: int

    def __post_init__(self):
        if self.start < 0 or self.nbytes < 0:
            raise ValueError(f"invalid range start={self.start} nbytes={self.nbytes}")

    @property
    def end(self) -> int:
        return self.start + self.nbytes

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def contains_range(self, other: "AddressRange") -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.start < other.end and other.start < self.end

    def page_span(self, page_size: int) -> tuple[int, int]:
        return page_span(self.start, self.nbytes, page_size)

    def pages(self, page_size: int) -> Iterator[int]:
        return pages_in(self.start, self.nbytes, page_size)

    def n_pages(self, page_size: int) -> int:
        return page_span(self.start, self.nbytes, page_size)[1]

    def __repr__(self) -> str:
        return f"AddressRange(0x{self.start:x}, {self.nbytes}B)"
