"""Per-thread user-facing OpenMP offloading API.

Workloads are written against :class:`OmpThread`, whose methods mirror
the OpenMP constructs the paper's applications use::

    def body(th, tid):
        a = yield from th.alloc("a", 64 * MIB)
        yield from th.target_enter_data([MapClause(a, MapKind.TO)])
        rec = yield from th.target(
            "axpy", compute_us=500.0,
            maps=[MapClause(a, MapKind.ALLOC)],
            fn=lambda args, g: args["a"].__imul__(2.0),
        )
        yield from th.target_exit_data([MapClause(a, MapKind.FROM)])

Every method is a generator (it consumes simulated time) driven with
``yield from`` inside the thread body.  The *same* workload body runs
unmodified under all four runtime configurations; which storage
operations actually happen is the policy's business — that inversion is
exactly the paper's point about OpenMP data environments being an
abstraction over physical storage (§III.C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.config import RuntimeConfig
from ..hsa.api import KernelRecord
from ..hsa.signals import Signal
from ..memory.buffers import HostBuffer
from ..omp.globals_ import GlobalVar
from ..omp.mapping import MapClause, MappingError
from .runtime import OpenMPRuntime

__all__ = ["OmpThread", "AsyncTarget", "KernelFn"]

#: Functional kernel signature: (mapped arrays by name, globals by name).
KernelFn = Callable[[Dict[str, np.ndarray], Dict[str, np.ndarray]], None]


@dataclass
class AsyncTarget:
    """Handle for a ``nowait`` target region (completed via
    :meth:`OmpThread.wait`)."""

    signal: Signal
    maps: Tuple[MapClause, ...]
    #: pending MapCheck kernel event (set only when a recorder is attached)
    check_info: object = None


class OmpThread:
    """One OpenMP host thread offloading to the device."""

    def __init__(self, runtime: OpenMPRuntime, tid: int):
        self.rt = runtime
        self.env = runtime.env
        self.tid = tid
        self._policy = runtime.policy
        self._cost = runtime.cost

    # ------------------------------------------------------------------
    # host memory
    # ------------------------------------------------------------------
    def alloc(
        self,
        name: str,
        nbytes: int,
        payload: Optional[np.ndarray] = None,
        region: str = "heap",
    ):
        """(generator) Host allocation (malloc/mmap or stack array).

        Charges the OS populate cost; the CPU page table is filled
        immediately (host-side initialization is never the bottleneck in
        the paper's experiments).
        """
        osalloc = self.rt.system.os_alloc
        rng = osalloc.alloc(nbytes, region=region)
        pages = osalloc.populate_cost_pages(nbytes)
        yield self.env.charge(pages * self._cost.os_populate_page_us)
        return HostBuffer(name, rng, payload=payload, region=region)

    def free(self, buf: HostBuffer):
        """(generator) Release host memory.

        Freeing a buffer that is still mapped is a user error the real
        runtime cannot diagnose; we can, so we do.
        """
        if self.rt.table.is_present(buf):
            raise MappingError(f"freeing host buffer {buf.name!r} while still mapped")
        buf.check_alive()
        self.rt.system.os_alloc.free(buf.range)
        buf.freed = True
        yield self.env.charge(self._cost.syscall_base_us)

    # ------------------------------------------------------------------
    # data environment
    # ------------------------------------------------------------------
    def target_enter_data(self, maps: Sequence[MapClause]):
        """(generator) ``#pragma omp target enter data map(...)``."""
        sigs = yield from self._policy.map_enter_all(maps, tid=self.tid)
        if sigs:
            t0 = self.env.now
            yield from self.rt.hsa.signal_wait_scacquire_all(sigs)
            self.rt.ledger.wait_us += self.env.now - t0

    def target_exit_data(self, maps: Sequence[MapClause]):
        """(generator) ``#pragma omp target exit data map(...)``."""
        yield from self._policy.map_exit_all(maps, tid=self.tid)

    def update_global(self, glob: GlobalVar):
        """(generator) ``map(always, to: g)`` / ``target update to(g)``."""
        yield from self._policy.global_update(glob)
        if self.rt.recorder is not None:
            self.rt.recorder.note_global_sync(self.tid, self.env.now, glob)

    def target_update(self, to=(), from_=()):
        """(generator) ``#pragma omp target update to(...) from(...)``.

        Motion clauses refresh *present* mappings without changing
        reference counts; absent ranges are skipped (OpenMP 5.x).  Under
        zero-copy configurations there is nothing to move.
        """
        rec = self.rt.recorder
        for buf in to:
            yield from self._policy.motion_update(buf, to_device=True)
            if rec is not None:
                rec.note_update(self.tid, self.env.now, buf, to_device=True,
                                present=self.rt.table.is_present(buf))
        for buf in from_:
            yield from self._policy.motion_update(buf, to_device=False)
            if rec is not None:
                rec.note_update(self.tid, self.env.now, buf, to_device=False,
                                present=self.rt.table.is_present(buf))

    def host_write(self, buf: HostBuffer, values=None) -> None:
        """Declare a host-side write to ``buf``'s payload.

        The write itself is free (host stores are never the bottleneck
        here); the point of the call is the *declaration* — MapCheck's
        race detector uses it to find host writes that overlap an
        in-flight kernel reading the same range (rule MC-R02).  If
        ``values`` is given it is written into the payload first.
        """
        buf.check_alive()
        if values is not None:
            flat = np.asarray(values, dtype=buf.payload.dtype).reshape(-1)
            buf.payload.reshape(-1)[: flat.size] = flat
        if self.rt.recorder is not None:
            self.rt.recorder.note_host_write(self.tid, self.env.now, buf)

    # ------------------------------------------------------------------
    # target regions
    # ------------------------------------------------------------------
    def target(
        self,
        name: str,
        compute_us: float,
        maps: Sequence[MapClause] = (),
        fn: Optional[KernelFn] = None,
        globals_used: Sequence[GlobalVar] = (),
        nowait: bool = False,
        touches: Sequence[HostBuffer] = (),
    ):
        """(generator) ``#pragma omp target teams ...`` region.

        Performs the implicit map-enter, launches the kernel (with XNACK
        fault charging under the zero-copy configurations), waits for
        completion and performs the implicit map-exit.  With ``nowait``
        the handle is returned immediately and :meth:`wait` finishes the
        region.  Returns the kernel's :class:`KernelRecord`.

        ``touches`` declares raw-pointer accesses: host buffers the
        kernel dereferences *without* a map clause (a pointer smuggled in
        through a struct, say).  On an APU with XNACK these silently work
        — the faults are replayed like any other first touch — but
        configurations that run with XNACK disabled (Copy, Eager Maps:
        the discrete-GPU deployment model) hard-fault on them, which is
        exactly the latent portability bug of §IV.C that MapCheck's
        MC-P01 lint exists to flag.
        """
        maps = tuple(maps)
        touches = tuple(touches)
        sigs = yield from self._policy.map_enter_all(maps, tid=self.tid)
        if sigs:
            t0 = self.env.now
            yield from self.rt.hsa.signal_wait_scacquire_all(sigs)
            self.rt.ledger.wait_us += self.env.now - t0
        args, fault_ranges = self._policy.resolve_kernel_args(maps)
        fault_ranges = list(fault_ranges) if self.rt.config.is_zero_copy else []
        uncovered = []
        for buf in touches:
            buf.check_alive()
            args.setdefault(buf.name, buf.payload)
            if (self.rt.table.find_covering(buf.range) is None
                    and self.rt.globals.find_covering(buf.range) is None):
                uncovered.append(buf)
                fault_ranges.append(buf.range)
        if self.rt.kernel_cost_adjuster is not None:
            compute_us = self.rt.kernel_cost_adjuster(maps, compute_us)
        gviews = {g.name: self._policy.resolve_global(g) for g in globals_used}
        if self.rt.config is RuntimeConfig.UNIFIED_SHARED_MEMORY and globals_used:
            # double-indirection tax + the host global's page is GPU-touched
            compute_us = compute_us + len(gviews) * self._cost.usm_indirection_us
            fault_ranges = list(fault_ranges) + [g.range for g in globals_used]
        body = None
        if fn is not None:
            body = lambda: fn(args, gviews)  # noqa: E731
        check_info = None
        if self.rt.recorder is not None:
            check_info = self.rt.recorder.begin_kernel(
                name, self.tid, self.env.now, maps, touches, uncovered, globals_used
            )
        sig = self.rt.hsa.dispatch_kernel(
            name,
            compute_us,
            fn=body,
            fault_ranges=fault_ranges,
            on_complete=self.rt._on_kernel_complete,
        )
        handle = AsyncTarget(sig, maps, check_info=check_info)
        if nowait:
            return handle
        rec = yield from self.wait(handle)
        return rec

    def wait(self, handle: AsyncTarget):
        """(generator) Complete a target region: kernel wait + map-exit."""
        t0 = self.env.now
        yield from self.rt.hsa.signal_wait_scacquire(handle.signal)
        self.rt.ledger.wait_us += self.env.now - t0
        rec: KernelRecord = handle.signal.value
        if self.rt.recorder is not None and handle.check_info is not None:
            self.rt.recorder.end_kernel(handle.check_info, rec, self.tid, t0)
        yield from self._policy.map_exit_all(handle.maps, tid=self.tid)
        return rec

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def mark(self, name: str, first: bool = True) -> None:
        """Record a phase mark (aggregated across threads)."""
        self.rt.mark(name, first=first)
