"""Cross-layer invariants checked after realistic workload runs.

These are the statements that make the simulation trustworthy as a
*system*: page tables, frame ownership and present-table state must be
mutually consistent no matter which configuration or workload ran.
"""

import numpy as np
import pytest

from conftest import make_runtime

from repro.core import RuntimeConfig
from repro.memory import DEVICE_POOL_BASE, HOST_HEAP_BASE, MapOrigin, PAGE_2M
from repro.omp import MapClause, MapKind
from repro.workloads import Ep452, Fidelity, QmcPackNio, TriadStream


def is_pool_page(page):
    """The ROCr pool VA window sits below the host heap arena."""
    return DEVICE_POOL_BASE <= page < HOST_HEAP_BASE

ALL = [
    RuntimeConfig.COPY,
    RuntimeConfig.UNIFIED_SHARED_MEMORY,
    RuntimeConfig.IMPLICIT_ZERO_COPY,
    RuntimeConfig.EAGER_MAPS,
]


def check_translation_consistency(system):
    """Every GPU translation for a *host* page aliases the CPU PT frame
    (zero-copy!); pool-window translations never appear in the CPU PT."""
    for page in system.gpu_pt.pages():
        gpu_pte = system.gpu_pt.lookup(page)
        if is_pool_page(page):
            assert gpu_pte.origin is MapOrigin.BULK_ALLOC
            assert system.cpu_pt.lookup(page) is None
        else:
            cpu_pte = system.cpu_pt.lookup(page)
            assert cpu_pte is not None, hex(page)
            assert cpu_pte.frame == gpu_pte.frame, hex(page)
            assert gpu_pte.origin in (MapOrigin.XNACK_REPLAY, MapOrigin.PREFAULT)


def run_workload(wl_factory, cfg):
    rt = make_runtime(cfg)
    rt.run_workload(wl_factory())
    return rt


@pytest.mark.parametrize("cfg", ALL)
def test_translation_consistency_after_qmcpack(cfg):
    rt = run_workload(lambda: QmcPackNio(size=2, fidelity=Fidelity.TEST), cfg)
    check_translation_consistency(rt.system)


@pytest.mark.parametrize("cfg", ALL)
def test_translation_consistency_after_ep(cfg):
    rt = run_workload(lambda: Ep452(fidelity=Fidelity.TEST), cfg)
    check_translation_consistency(rt.system)


def test_no_frame_is_shared_between_host_and_pool():
    rt = run_workload(lambda: TriadStream(fidelity=Fidelity.TEST),
                      RuntimeConfig.COPY)
    system = rt.system
    host_frames = set()
    pool_frames = set()
    for page in system.gpu_pt.pages():
        pte = system.gpu_pt.lookup(page)
        if is_pool_page(page):
            pool_frames.add(pte.frame)
        else:
            host_frames.add(pte.frame)
    for page in system.cpu_pt.pages():
        host_frames.add(system.cpu_pt.lookup(page).frame)
    assert not host_frames & pool_frames


def test_frame_accounting_balances_page_tables():
    """frames_in_use == CPU PT frames + pool-only GPU PT frames +
    pool-retained frames (zero-copy GPU entries alias, never add)."""
    for cfg in ALL:
        rt = run_workload(lambda: TriadStream(fidelity=Fidelity.TEST), cfg)
        system = rt.system
        cpu_frames = {system.cpu_pt.lookup(p).frame for p in system.cpu_pt.pages()}
        pool_frames = {
            system.gpu_pt.lookup(p).frame
            for p in system.gpu_pt.pages()
            if is_pool_page(p)
        }
        retained = rt.hsa.pool.bytes_retained // PAGE_2M
        # retained pool blocks keep their frames mapped in the GPU PT, so
        # they are already inside pool_frames
        assert system.physical.frames_in_use == len(cpu_frames) + len(pool_frames), cfg


def test_present_table_drains_when_workload_unmaps_everything():
    for cfg in ALL:
        rt = make_runtime(cfg)

        def body(th, tid):
            x = yield from th.alloc("x", 4 * PAGE_2M, payload=np.ones(4))
            y = yield from th.alloc("y", 2 * PAGE_2M, payload=np.ones(4))
            yield from th.target_enter_data(
                [MapClause(x, MapKind.TO), MapClause(y, MapKind.TO)]
            )
            for _ in range(3):
                yield from th.target(
                    "k", 10.0,
                    maps=[MapClause(x, MapKind.ALLOC), MapClause(y, MapKind.ALLOC)],
                )
            yield from th.target_exit_data(
                [MapClause(x, MapKind.DELETE), MapClause(y, MapKind.FROM)]
            )

        rt.run(body)
        assert len(rt.table) == 0, cfg
        assert rt.table.total_refcount() == 0, cfg


def test_peak_memory_ordering_across_configs():
    """Copy's shadow allocations give it the largest footprint; the three
    zero-copy configurations are identical."""
    peaks = {}
    for cfg in ALL:
        rt = run_workload(lambda: TriadStream(fidelity=Fidelity.TEST), cfg)
        peaks[cfg] = rt.system.physical.peak_bytes
    zc = {peaks[c] for c in ALL if c is not RuntimeConfig.COPY}
    assert len(zc) == 1
    assert peaks[RuntimeConfig.COPY] > zc.pop()
