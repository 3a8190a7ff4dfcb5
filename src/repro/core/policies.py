"""Data-management policies: the behavioural core of the four
runtime configurations (§IV.A–D).

Each policy implements how ``map`` clauses manipulate storage, what
pointer a kernel receives for a mapped buffer, which host ranges a kernel
can fault on, and how declare-target globals are kept consistent:

================  ==========  =====================  =================
configuration      map storage  kernel arg             first GPU touch
================  ==========  =====================  =================
Copy               pool alloc  shadow device buffer   none (bulk mapped)
                   + copies
USM                none        host pointer           XNACK replay
Implicit Z-C       none        host pointer           XNACK replay
Eager Maps         prefault    host pointer           none (prefaulted)
                   syscall
================  ==========  =====================  =================

Globals: USM reads the host global through a pointer (double
indirection); the other three keep a device copy refreshed by
``map(always, to:)`` / ``target update`` transfers.

All methods that consume simulated time are generators driven with
``yield from`` inside a host-thread process: a fixed charge is
``if not env.fuse(us): yield us`` and a lock grant
``lock.grab() or (yield lock)``, both bare heap entries when they wait
(see :class:`repro.sim.core.Process`).  The policies hold the
libomptarget device lock across present-table manipulation (and, for
Copy, across pool allocation) — which is exactly the serialization that
makes Copy scale poorly with host threads (§V.A.2).  A lock cycle that
charges only a fixed call cost is ``if not lock.hold(us): yield from
self._locked(us)``, with the table work right after it: no event or
yield lies between them, so no other thread can see the table first.
Eager Maps serializes its prefault syscalls on the process ``mm`` lock,
reproducing the concurrent-prefault slowdown noted in §VI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from ..memory.buffers import DeviceBuffer, HostBuffer
from ..memory.layout import AddressRange
from ..omp.globals_ import GlobalVar
from ..omp.mapping import MapClause, MapKind, MappingError, PresentEntry
from .config import RuntimeConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..omp.runtime import OpenMPRuntime

__all__ = ["DataPolicy", "CopyPolicy", "ZeroCopyPolicy", "UsmPolicy",
           "ImplicitZeroCopyPolicy", "EagerMapsPolicy", "make_policy"]


class DataPolicy:
    """Shared plumbing for all configurations."""

    config: RuntimeConfig

    def __init__(self, runtime: "OpenMPRuntime"):
        self.rt = runtime
        self.env = runtime.env
        self.hsa = runtime.hsa
        self.cost = runtime.cost
        self.table = runtime.table
        self.ledger = runtime.ledger

    # -- helpers ---------------------------------------------------------
    def _note_map(self, op, clause, tid, t0, *, is_new, refcount, removed):
        """Report one map operation to ``rt.recorder`` (called only when set)."""
        self.rt.recorder.note_map(
            op, clause, tid, t0, self.env.now,
            is_new=is_new, refcount=refcount, removed=removed,
        )

    def _locked(self, us: float):
        """(generator) One device-lock cycle holding only a ``us`` charge:
        the slow path of ``if not lock.hold(us): yield from self._locked(us)``."""
        lock = self.rt.lock
        grant = lock.grab() or (yield lock)
        try:
            if not self.env.fuse(us):
                yield us
        finally:
            lock.release(grant)

    # -- interface ----------------------------------------------------------
    def map_enter_all(self, clauses: Sequence[MapClause], tid=None):  # pragma: no cover
        raise NotImplementedError

    def map_exit_all(self, clauses: Sequence[MapClause], tid=None):  # pragma: no cover
        raise NotImplementedError

    def resolve_kernel_args(
        self, clauses: Sequence[MapClause]
    ) -> Tuple[Dict[str, np.ndarray], List[AddressRange]]:  # pragma: no cover
        raise NotImplementedError

    def resolve_global(self, glob: GlobalVar) -> np.ndarray:
        return glob.device_view()

    def global_update(self, glob: GlobalVar):  # pragma: no cover
        raise NotImplementedError

    def motion_update(self, buf: HostBuffer, to_device: bool):
        """(generator) ``#pragma omp target update to(...)/from(...)``.

        OpenMP motion clauses move data for *present* ranges without
        touching reference counts; updates of absent ranges are no-ops
        (OpenMP 5.x semantics).  Zero-copy configurations have one copy
        of the data, so the construct is pure bookkeeping for them.
        """
        raise NotImplementedError  # pragma: no cover

    def init_global(self, glob: GlobalVar) -> None:
        """Set up the global's device-side representation at image load."""
        glob.materialize_device_copy()


class CopyPolicy(DataPolicy):
    """§IV.A "Legacy" Copy: device pool allocations + HBM-to-HBM copies.

    Host-to-device transfers are submitted asynchronously and completed
    through the async-handler path; the caller barrier-waits before the
    kernel launch.  Device-to-host transfers are synchronous.  This split
    is what produces Table I's ``signal_async_handler`` ≈ ⅔ ×
    ``memory_async_copy`` call-count relationship.
    """

    config = RuntimeConfig.COPY

    def _copy(self, dst, src, nbytes: int, tag: str):
        """(generator) A synchronous copy, its time charged to MM."""
        t0 = self.env.now
        yield from self.hsa.copy_and_wait(dst, src, nbytes, tag)
        self.ledger.mm_copy_us += self.env.now - t0

    def map_enter_all(self, clauses: Sequence[MapClause], tid=None):
        env, lock, table, ledger = self.env, self.rt.lock, self.table, self.ledger
        call_us, rec = self.cost.omp_runtime_call_us, self.rt.recorder
        h2d_signals = []
        for clause in clauses:
            if clause.kind in (MapKind.RELEASE, MapKind.DELETE):
                raise MappingError(f"map({clause.kind.value}) is exit-only")
            buf = clause.buffer
            if buf.freed:
                buf.check_alive()
            ledger.n_map_enters += 1
            t_op = env.now if rec is not None else None
            grant = lock.grab() or (yield lock)
            try:
                if not env.fuse(call_us):
                    yield call_us
                entry = table.lookup(buf)
                is_new = entry is None
                if is_new:
                    t0 = env.now
                    rng = yield from self.rt.device_mem.allocate(buf.nbytes)
                    ledger.mm_alloc_us += env.now - t0
                    entry = PresentEntry(
                        host=buf, device=DeviceBuffer(rng, buf.payload), refcount=0
                    )
                    table.insert(entry)
                entry.refcount += 1
            finally:
                lock.release(grant)
            if clause.kind.copies_to_device and (is_new or clause.always):
                sig = self.hsa.memory_async_copy(entry.device.payload, buf.payload, buf.nbytes,
                                                 tag=f"h2d:{buf.name}", handler=True)
                ledger.mm_copy_us += self.cost.copy_us(buf.nbytes)
                ledger.h2d_bytes += buf.nbytes
                h2d_signals.append(sig)
            if rec is not None:
                self._note_map("enter", clause, tid, t_op,
                               is_new=is_new, refcount=entry.refcount, removed=False)
        return h2d_signals

    def map_exit_all(self, clauses: Sequence[MapClause], tid=None):
        env, lock, table, ledger = self.env, self.rt.lock, self.table, self.ledger
        call_us, rec = self.cost.omp_runtime_call_us, self.rt.recorder
        for clause in clauses:
            buf = clause.buffer
            if buf.freed:
                buf.check_alive()
            ledger.n_map_exits += 1
            t_op = env.now if rec is not None else None
            if not lock.hold(call_us):
                yield from self._locked(call_us)
            entry = table.release(buf, delete=clause.kind is MapKind.DELETE)
            last = entry.refcount == 0
            if clause.kind.copies_to_host and (last or clause.always):
                yield from self._copy(buf.payload, entry.device.payload, buf.nbytes,
                                      f"d2h:{buf.name}")
                ledger.d2h_bytes += buf.nbytes
            if last:
                grant = lock.grab() or (yield lock)
                try:
                    t0 = env.now
                    yield from self.rt.device_mem.free(entry.device.range)
                    entry.device.freed = True
                    ledger.mm_alloc_us += env.now - t0
                    table.remove(entry)
                finally:
                    lock.release(grant)
            if rec is not None:
                self._note_map("exit", clause, tid, t_op,
                               is_new=False, refcount=entry.refcount, removed=last)

    def resolve_kernel_args(self, clauses):
        args: Dict[str, np.ndarray] = {}
        for clause in clauses:
            entry = self.table.lookup(clause.buffer)
            if entry is None or entry.device is None:
                raise MappingError(
                    f"kernel references unmapped buffer {clause.buffer.name!r} "
                    "(Copy configuration requires every accessed range to be mapped)"
                )
            args[clause.buffer.name] = entry.device.payload
        # pool memory is bulk-mapped at allocation: kernels never fault
        return args, []

    def global_update(self, glob: GlobalVar):
        """map(always, to: g): HBM-to-HBM transfer into the device copy."""
        yield from self._copy(glob.device_view(), glob.host_payload, glob.nbytes,
                              f"glob:{glob.name}")
        self.ledger.h2d_bytes += glob.nbytes

    def motion_update(self, buf: HostBuffer, to_device: bool):
        buf.check_alive()
        entry = self.table.lookup(buf)
        if entry is None or entry.device is None:
            # motion clauses for absent data are no-ops
            if not self.env.fuse(self.cost.omp_runtime_call_us):
                yield self.cost.omp_runtime_call_us
            return
        dst, src, tag = (
            (entry.device.payload, buf.payload, f"upd-to:{buf.name}")
            if to_device
            else (buf.payload, entry.device.payload, f"upd-from:{buf.name}")
        )
        yield from self._copy(dst, src, buf.nbytes, tag)
        if to_device:
            self.ledger.h2d_bytes += buf.nbytes
        else:
            self.ledger.d2h_bytes += buf.nbytes


class ZeroCopyPolicy(DataPolicy):
    """Shared behaviour of the three zero-copy configurations: maps do
    presence bookkeeping only; kernels receive host pointers."""

    _post_enter = None  #: generator method run after each map-enter (Eager's prefault)

    def map_enter_all(self, clauses: Sequence[MapClause], tid=None):
        env, lock, table, ledger = self.env, self.rt.lock, self.table, self.ledger
        call_us, rec = self.cost.zc_map_call_us, self.rt.recorder
        post_enter = self._post_enter
        for clause in clauses:
            if clause.kind in (MapKind.RELEASE, MapKind.DELETE):
                raise MappingError(f"map({clause.kind.value}) is exit-only")
            buf = clause.buffer
            if buf.freed:
                buf.check_alive()
            ledger.n_map_enters += 1
            t_op = env.now if rec is not None else None
            if not lock.hold(call_us):
                yield from self._locked(call_us)
            entry = table.lookup(buf)
            is_new = entry is None
            if is_new:
                entry = PresentEntry(host=buf, device=None, refcount=0)
                table.insert(entry)
            entry.refcount += 1
            if rec is not None:
                self._note_map("enter", clause, tid, t_op,
                               is_new=is_new, refcount=entry.refcount, removed=False)
            if post_enter is not None:
                yield from post_enter(clause)
        return []

    def map_exit_all(self, clauses: Sequence[MapClause], tid=None):
        env, lock, table, ledger = self.env, self.rt.lock, self.table, self.ledger
        call_us, rec = self.cost.zc_map_call_us, self.rt.recorder
        for clause in clauses:
            buf = clause.buffer
            if buf.freed:
                buf.check_alive()
            ledger.n_map_exits += 1
            t_op = env.now if rec is not None else None
            if not lock.hold(call_us):
                yield from self._locked(call_us)
            entry = table.release(buf, delete=clause.kind is MapKind.DELETE)
            removed = entry.refcount == 0
            if removed:
                table.remove(entry)
            if rec is not None:
                self._note_map("exit", clause, tid, t_op,
                               is_new=False, refcount=entry.refcount, removed=removed)

    def resolve_kernel_args(self, clauses):
        args = {c.buffer.name: c.buffer.payload for c in clauses}
        faultable = [c.buffer.range for c in clauses]
        return args, faultable

    def motion_update(self, buf: HostBuffer, to_device: bool):
        """One shared copy of the data: the update is bookkeeping only."""
        buf.check_alive()
        if not self.env.fuse(self.cost.zc_map_call_us):
            yield self.cost.zc_map_call_us

    def global_update(self, glob: GlobalVar):
        """Implicit Z-C / Eager handle globals "as if operating in Copy
        mode" (§IV.C): a system-scope transfer into the device copy."""
        dur = self.cost.copy_us(glob.nbytes)
        if not self.env.fuse(dur):
            yield dur
        np.copyto(glob.device_view(), glob.host_payload)
        self.hsa.trace.record("memory_copy", self.env.now - dur, dur)
        self.ledger.mm_copy_us += dur
        self.ledger.shadow_bytes += glob.nbytes


class UsmPolicy(ZeroCopyPolicy):
    """§IV.B Unified Shared Memory: maps are no-ops; globals are pointers."""

    config = RuntimeConfig.UNIFIED_SHARED_MEMORY

    def init_global(self, glob: GlobalVar) -> None:
        glob.materialize_usm_pointer()

    def global_update(self, glob: GlobalVar):
        """The device pointer aliases the host global: mapping a global
        moves no data (runtime bookkeeping only)."""
        if not self.env.fuse(self.cost.omp_runtime_call_us):
            yield self.cost.omp_runtime_call_us


class ImplicitZeroCopyPolicy(ZeroCopyPolicy):
    """§IV.C Implicit Zero-Copy: auto-detected zero-copy, Copy-style globals."""

    config = RuntimeConfig.IMPLICIT_ZERO_COPY


class EagerMapsPolicy(ZeroCopyPolicy):
    """§IV.D Eager Maps: every map-enter prefaults the GPU page table.

    The prefault is a privileged syscall serialized on the process ``mm``
    lock — concurrent prefaulting from many OpenMP host threads contends
    here (§VI) — and it is issued on *every* map of the range: first time
    it installs translations page-by-page from the CPU table, afterwards
    it only verifies presence (§IV.D).
    """

    config = RuntimeConfig.EAGER_MAPS

    def _post_enter(self, clause: MapClause):
        t0 = self.env.now
        rng = clause.buffer.range
        if self.rt.system.driver.resident(rng):
            # fast path: presence verification reads the page table under
            # a shared lock — no cross-thread serialization
            yield from self.hsa.svm_attributes_set(rng)
        else:
            # installing translations takes the process mm lock
            # exclusively; concurrent prefaults from many host threads
            # serialize here (§VI)
            grant = self.rt.mm_lock.grab() or (yield self.rt.mm_lock)
            try:
                yield from self.hsa.svm_attributes_set(rng)
            finally:
                self.rt.mm_lock.release(grant)
        self.ledger.prefault_us += self.env.now - t0


_POLICY_CLASSES = {
    RuntimeConfig.COPY: CopyPolicy,
    RuntimeConfig.UNIFIED_SHARED_MEMORY: UsmPolicy,
    RuntimeConfig.IMPLICIT_ZERO_COPY: ImplicitZeroCopyPolicy,
    RuntimeConfig.EAGER_MAPS: EagerMapsPolicy,
}


def make_policy(config: RuntimeConfig, runtime: "OpenMPRuntime") -> DataPolicy:
    return _POLICY_CLASSES[config](runtime)
