"""Memory substrate: pages, page tables, physical HBM, OS allocator, buffers."""

from .buffers import DeviceBuffer, HostBuffer
from .layout import (
    DEVICE_POOL_BASE,
    GIB,
    HOST_HEAP_BASE,
    HOST_STACK_BASE,
    KIB,
    MIB,
    PAGE_2M,
    PAGE_4K,
    AddressRange,
    align_down,
    align_up,
    page_base,
    page_span,
    pages_in,
)
from .os_alloc import AllocationError, OsAllocator
from .pagetable import MapOrigin, PageTable, Pte
from .physical import OutOfMemoryError, PhysicalMemory

__all__ = [
    "AddressRange",
    "AllocationError",
    "DEVICE_POOL_BASE",
    "DeviceBuffer",
    "GIB",
    "HOST_HEAP_BASE",
    "HOST_STACK_BASE",
    "HostBuffer",
    "KIB",
    "MIB",
    "MapOrigin",
    "OsAllocator",
    "OutOfMemoryError",
    "PAGE_2M",
    "PAGE_4K",
    "PageTable",
    "PhysicalMemory",
    "Pte",
    "align_down",
    "align_up",
    "page_base",
    "page_span",
    "pages_in",
]
