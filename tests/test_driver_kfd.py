"""Unit tests for the AMDGPU driver model (repro.driver.kfd)."""

import pytest

from repro.core.params import CostModel
from repro.driver import GpuMemoryError, Kfd
from repro.memory import (
    PAGE_2M,
    AddressRange,
    MapOrigin,
    OsAllocator,
    PageTable,
    PhysicalMemory,
)


def make_stack(xnack=True):
    cost = CostModel()
    mem = PhysicalMemory(total_bytes=256 * PAGE_2M, frame_bytes=PAGE_2M)
    cpu_pt = PageTable(PAGE_2M, "cpu")
    gpu_pt = PageTable(PAGE_2M, "gpu")
    kfd = Kfd(cost, mem, cpu_pt, gpu_pt, xnack_enabled=xnack)
    osalloc = OsAllocator(mem, cpu_pt, on_unmap=kfd.mmu_unmap)
    return cost, kfd, osalloc, cpu_pt, gpu_pt, mem


# ---------------------------------------------------------------------------
# XNACK replay
# ---------------------------------------------------------------------------


def test_xnack_first_touch_installs_and_charges():
    cost, kfd, osalloc, _, gpu_pt, _ = make_stack()
    rng = osalloc.alloc(3 * PAGE_2M)
    fr = kfd.service_xnack_faults([rng])
    assert fr.n_faults == 3
    assert fr.stall_us == pytest.approx(
        cost.xnack_kernel_entry_us + 3 * cost.xnack_fault_us_per_page
    )
    assert gpu_pt.coverage(rng) == (3, 0)


def test_xnack_second_touch_is_free():
    _, kfd, osalloc, _, _, _ = make_stack()
    rng = osalloc.alloc(2 * PAGE_2M)
    kfd.service_xnack_faults([rng])
    fr = kfd.service_xnack_faults([rng])
    assert fr.n_faults == 0
    assert fr.stall_us == 0.0


def test_xnack_shares_frames_with_cpu():
    """Zero-copy: the GPU translation points at the same physical frame."""
    _, kfd, osalloc, cpu_pt, gpu_pt, _ = make_stack()
    rng = osalloc.alloc(PAGE_2M)
    kfd.service_xnack_faults([rng])
    page = next(rng.pages(PAGE_2M))
    assert gpu_pt.lookup(page).frame == cpu_pt.lookup(page).frame


def test_xnack_disabled_faults_are_fatal():
    _, kfd, osalloc, _, _, _ = make_stack(xnack=False)
    rng = osalloc.alloc(PAGE_2M)
    with pytest.raises(GpuMemoryError):
        kfd.service_xnack_faults([rng])


def test_xnack_unbacked_page_is_fatal():
    _, kfd, _, _, _, _ = make_stack()
    with pytest.raises(GpuMemoryError):
        kfd.service_xnack_faults([AddressRange(0xDEAD * PAGE_2M, PAGE_2M)])


def test_count_missing_pages():
    _, kfd, osalloc, _, gpu_pt, _ = make_stack()
    rng = osalloc.alloc(4 * PAGE_2M)
    assert gpu_pt.coverage(rng)[1] == 4
    kfd.service_xnack_faults([AddressRange(rng.start, PAGE_2M)])
    assert gpu_pt.coverage(rng)[1] == 3


def test_resident_query_and_shared_zero_fault_result():
    _, kfd, osalloc, _, _, _ = make_stack()
    rng = osalloc.alloc(2 * PAGE_2M)
    assert not kfd.resident(rng)
    first = kfd.service_xnack_faults([rng])
    assert first.n_faults == 2
    assert kfd.resident(rng)
    # a launch that faults on nothing gets the one shared, immutable result
    again = kfd.service_xnack_faults([rng])
    assert again == (0, 0.0)
    assert kfd.service_xnack_faults([]) is again
    with pytest.raises(AttributeError):
        again.n_faults = 1


# ---------------------------------------------------------------------------
# Pool bulk mapping
# ---------------------------------------------------------------------------


def test_bulk_map_installs_translations_eagerly():
    cost, kfd, _, _, gpu_pt, mem = make_stack()
    rng, work = kfd.bulk_map_new_memory(3 * PAGE_2M)
    assert gpu_pt.coverage(rng) == (3, 0)
    assert work == pytest.approx(3 * cost.pool_alloc_page_us)
    assert mem.frames_in_use == 3
    # pool memory never XNACK-faults afterwards (MI_copy = 0, Table III)
    assert kfd.service_xnack_faults([rng]).n_faults == 0


def test_bulk_map_origin_recorded():
    _, kfd, _, _, gpu_pt, _ = make_stack()
    rng, _ = kfd.bulk_map_new_memory(PAGE_2M)
    page = next(rng.pages(PAGE_2M))
    assert gpu_pt.lookup(page).origin is MapOrigin.BULK_ALLOC


def test_release_pool_memory_frees_everything():
    cost, kfd, _, _, gpu_pt, mem = make_stack()
    rng, _ = kfd.bulk_map_new_memory(2 * PAGE_2M)
    work = kfd.release_pool_memory(rng)
    assert work == pytest.approx(2 * cost.pool_release_page_us)
    assert gpu_pt.coverage(rng) == (0, 2)
    assert mem.frames_in_use == 0


def test_bulk_map_distinct_va_windows():
    _, kfd, osalloc, _, _, _ = make_stack()
    host = osalloc.alloc(PAGE_2M)
    dev, _ = kfd.bulk_map_new_memory(PAGE_2M)
    assert not host.overlaps(dev)


# ---------------------------------------------------------------------------
# Prefault (Eager Maps)
# ---------------------------------------------------------------------------


def test_prefault_first_time_installs():
    cost, kfd, osalloc, _, gpu_pt, _ = make_stack()
    rng = osalloc.alloc(4 * PAGE_2M)
    res = kfd.prefault(rng)
    assert (res.n_new, res.n_present) == (4, 0)
    assert res.work_us == pytest.approx(4 * cost.prefault_page_us)
    assert gpu_pt.coverage(rng) == (4, 0)


def test_prefault_repeat_is_verification_only():
    cost, kfd, osalloc, _, _, _ = make_stack()
    rng = osalloc.alloc(4 * PAGE_2M)
    kfd.prefault(rng)
    res = kfd.prefault(rng)
    assert (res.n_new, res.n_present) == (0, 4)
    assert res.work_us == pytest.approx(4 * cost.prefault_verify_page_us)


def test_prefault_then_kernel_never_faults():
    _, kfd, osalloc, _, _, _ = make_stack()
    rng = osalloc.alloc(2 * PAGE_2M)
    kfd.prefault(rng)
    assert kfd.service_xnack_faults([rng]).n_faults == 0


def test_prefault_works_with_xnack_disabled():
    """Eager Maps does not require XNACK (§IV.D)."""
    _, kfd, osalloc, _, _, _ = make_stack(xnack=False)
    rng = osalloc.alloc(2 * PAGE_2M)
    kfd.prefault(rng)
    assert kfd.service_xnack_faults([rng]).n_faults == 0


def test_prefault_unbacked_is_fatal():
    _, kfd, _, _, _, _ = make_stack()
    with pytest.raises(GpuMemoryError):
        kfd.prefault(AddressRange(0xBEEF * PAGE_2M, PAGE_2M))


# ---------------------------------------------------------------------------
# mmu notifier / free semantics
# ---------------------------------------------------------------------------


def test_free_shoots_down_gpu_translations():
    _, kfd, osalloc, _, gpu_pt, _ = make_stack()
    rng = osalloc.alloc(2 * PAGE_2M)
    kfd.service_xnack_faults([rng])
    osalloc.free(rng)
    assert gpu_pt.coverage(rng) == (0, 2)
    assert kfd.shootdowns == 2


def test_realloc_after_free_refaults():
    """The 452.ep mechanism: alloc/init/free cycles re-fault every time."""
    _, kfd, osalloc, _, _, _ = make_stack()
    total_faults = 0
    for _ in range(3):
        rng = osalloc.alloc(2 * PAGE_2M)
        total_faults += kfd.service_xnack_faults([rng]).n_faults
        osalloc.free(rng)
    assert total_faults == 6
