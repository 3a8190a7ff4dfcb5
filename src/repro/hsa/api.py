"""The traced HSA/ROCr runtime facade.

Everything the OpenMP plugin does to the hardware flows through this
class, so the rocprof-style trace it feeds is complete by construction.
Call names match the paper's Table I (leading ``hsa_``/``hsa_amd_``
prefixes dropped, as in the paper): ``signal_wait_scacquire``,
``memory_pool_allocate``, ``memory_async_copy``, ``signal_async_handler``,
``svm_attributes_set``.

Methods that consume simulated time are generators meant to be driven with
``yield from`` inside a host-thread process; operations that proceed
asynchronously (SDMA copies, kernel dispatches) spawn their own process
and hand back a :class:`Signal`.

Fixed delays are charged as ``if not env.fuse(us): yield env.timeout(us)``
and free SDMA engines and GPU queues are taken with
``res.grab() or (yield res.acquire())``: back-to-back uncontended HSA
calls on a host thread fuse into a single clock adjustment with no heap
traffic and no scheduler round trip, and the engine settles the
accumulator before any resource grant, signal wait or ``env.now`` read,
so every traced timestamp is identical to the per-timeout engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.params import CostModel
from ..driver.kfd import Kfd, PrefaultResult
from ..driver.syscall import SyscallModel
from ..memory.layout import AddressRange
from ..sim import AllOf, Environment, Jitter, Resource, RngHub
from ..trace.hsa_trace import HsaTrace
from .memory_pool import MemoryPool
from .signals import Signal

__all__ = ["HsaRuntime", "KernelRecord"]


@dataclass(frozen=True)
class KernelRecord:
    """Completion record carried on a kernel's signal."""

    name: str
    submit_us: float
    start_us: float
    end_us: float
    compute_us: float
    fault_stall_us: float
    n_faults: int

    @property
    def queue_wait_us(self) -> float:
        return self.start_us - self.submit_us


def _functional_copy(dst: np.ndarray, src: np.ndarray) -> None:
    """Move payload data; sizes may differ (modeled >> payload)."""
    n = min(dst.size, src.size)
    if n:
        dst.reshape(-1)[:n] = src.reshape(-1)[:n]


class HsaRuntime:
    """One GPU agent's ROCr runtime: pools, engines, queues, signals."""

    def __init__(
        self,
        env: Environment,
        cost: CostModel,
        driver: Kfd,
        trace: HsaTrace,
        rng_hub: Optional[RngHub] = None,
    ):
        self.env = env
        self.cost = cost
        self.driver = driver
        self.trace = trace
        hub = rng_hub or RngHub(0)
        # one correlated machine-state factor for the whole run
        speed = 1.0
        if cost.run_sigma > 0.0:
            speed = float(np.exp(hub.stream("machine").normal(0.0, cost.run_sigma)))
        self.speed = speed
        self.op_jitter = Jitter(
            hub.stream("hsa.ops"), sigma=cost.jitter_sigma, scale=speed
        )
        syscall_jitter = Jitter(
            hub.stream("hsa.syscalls"),
            sigma=cost.jitter_sigma,
            tail_p=cost.syscall_tail_p,
            tail_scale_us=cost.syscall_tail_scale_us,
            scale=speed,
        )
        self.syscalls = SyscallModel(env, cost.syscall_base_us, syscall_jitter)
        self.pool = MemoryPool(cost, driver)
        self.sdma = Resource(env, capacity=cost.n_sdma_engines, name="sdma")
        self.queues = Resource(env, capacity=cost.n_gpu_queues, name="gpu-queues")
        self.kernels_dispatched = 0

    # ------------------------------------------------------------------
    # memory pool
    # ------------------------------------------------------------------
    def memory_pool_allocate(self, nbytes: int):
        """(generator) Allocate device-pool memory; returns the range."""
        t0 = self.env.now
        rng, dur, _cached = self.pool.allocate(nbytes)
        dur = self.op_jitter.apply(dur)
        if not self.env.fuse(dur):
            yield self.env.timeout(dur)
        self.trace.record("memory_pool_allocate", t0, dur)
        return rng

    def memory_pool_free(self, rng: AddressRange):
        """(generator) Free device-pool memory."""
        t0 = self.env.now
        dur = self.op_jitter.apply(self.pool.free(rng))
        if not self.env.fuse(dur):
            yield self.env.timeout(dur)
        self.trace.record("memory_pool_free", t0, dur)

    # ------------------------------------------------------------------
    # copies
    # ------------------------------------------------------------------
    def memory_async_copy(
        self,
        dst: Optional[np.ndarray],
        src: Optional[np.ndarray],
        nbytes: int,
        tag: str = "",
    ) -> Signal:
        """Submit an SDMA copy; returns its completion signal.

        The traced latency spans submit→complete, so engine queueing under
        multi-threaded load shows up in Table I's latency ratios exactly as
        it does under rocprof.
        """
        if nbytes < 0:
            raise ValueError(f"negative copy size {nbytes}")
        sig = Signal(self.env, tag=tag or "copy")
        t_submit = self.env.now

        def _copy_proc():
            grant = self.sdma.grab() or (yield self.sdma.acquire())
            try:
                dur = self.op_jitter.apply(self.cost.copy_us(nbytes))
                if not self.env.fuse(dur):
                    yield self.env.timeout(dur)
                if dst is not None and src is not None:
                    _functional_copy(dst, src)
            finally:
                self.sdma.release(grant)
            self.trace.record("memory_async_copy", t_submit, self.env.now - t_submit, tag=tag)
            sig.complete()

        self.env.process(_copy_proc(), name=f"sdma:{tag}")
        return sig

    def attach_async_handler(self, sig: Signal) -> None:
        """Complete a copy via the async-handler path (no host wait).

        Legacy Copy uses this for host-to-device transfers that a later
        barrier wait covers; each handler invocation is traced as
        ``signal_async_handler`` (zero-copy configurations never use it —
        the paper prints N/A for them in Table I).
        """

        def _handler_proc():
            yield sig.event
            dur = self.op_jitter.apply(self.cost.signal_handler_us)
            if not self.env.fuse(dur):
                yield self.env.timeout(dur)
            self.trace.record("signal_async_handler", sig.completed_at, dur, tag=sig.tag)

        self.env.process(_handler_proc(), name="async-handler")

    # ------------------------------------------------------------------
    # signal waits
    # ------------------------------------------------------------------
    def signal_wait_scacquire(self, sig: Signal):
        """(generator) Block until the signal completes.

        Traced latency is the blocked duration — dominated by kernel time
        for kernel-completion waits, which is why the paper's Copy/IZC
        latency ratio for this call (2.07–2.71) is far smaller than its
        call-count ratio.
        """
        t0 = self.env.now
        yield sig.event
        base = self.op_jitter.apply(self.cost.signal_wait_base_us)
        if not self.env.fuse(base):
            yield self.env.timeout(base)
        self.trace.record("signal_wait_scacquire", t0, self.env.now - t0)

    def signal_wait_scacquire_all(self, sigs: Sequence[Signal]):
        """(generator) One barrier wait over several signals (one traced
        scacquire call, as when waiting a completion-signal barrier)."""
        t0 = self.env.now
        pending = [s.event for s in sigs if not s.done]
        if pending:
            yield AllOf(self.env, pending)
        base = self.op_jitter.apply(self.cost.signal_wait_base_us)
        if not self.env.fuse(base):
            yield self.env.timeout(base)
        self.trace.record("signal_wait_scacquire", t0, self.env.now - t0)

    # ------------------------------------------------------------------
    # Eager-Maps prefault
    # ------------------------------------------------------------------
    def svm_attributes_set(self, rng: AddressRange):
        """(generator) GPU page-table prefault ioctl over a host range.

        Returns the driver's :class:`PrefaultResult`.
        """
        t0 = self.env.now
        res: PrefaultResult = self.driver.prefault(rng)
        extra = max(0.0, self.cost.prefault_call_us - self.cost.syscall_base_us)
        dur = self.syscalls.duration(extra + res.work_us)
        if not self.env.fuse(dur):
            yield self.env.timeout(dur)
        self.trace.record("svm_attributes_set", t0, dur)
        return res

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def dispatch_kernel(
        self,
        name: str,
        compute_us: float,
        fn: Optional[Callable[[], None]] = None,
        fault_ranges: Optional[List[AddressRange]] = None,
        on_complete: Optional[Callable[[KernelRecord], None]] = None,
    ) -> Signal:
        """Submit a kernel; returns its completion signal.

        ``fault_ranges`` are the host ranges the kernel touches through
        unified memory: any page without a GPU translation triggers the
        XNACK-replay protocol *while the kernel runs*, extending its
        duration (the MI overhead of Table III).  ``fn`` is the functional
        payload, executed at kernel completion.
        """
        if compute_us < 0:
            raise ValueError(f"negative kernel time {compute_us}")
        sig = Signal(self.env, tag=name)
        t_submit = self.env.now
        self.kernels_dispatched += 1

        def _kernel_proc():
            grant = self.queues.grab() or (yield self.queues.acquire())
            t_start = self.env.now
            try:
                fr = self.driver.service_xnack_faults(fault_ranges or [])
                dur = self.op_jitter.apply(
                    self.cost.dispatch_us + compute_us + fr.stall_us
                )
                if not self.env.fuse(dur):
                    yield self.env.timeout(dur)
                if fn is not None:
                    fn()
            finally:
                self.queues.release(grant)
            rec = KernelRecord(
                name=name,
                submit_us=t_submit,
                start_us=t_start,
                end_us=self.env.now,
                compute_us=compute_us,
                fault_stall_us=fr.stall_us,
                n_faults=fr.n_faults,
            )
            if on_complete is not None:
                on_complete(rec)
            sig.complete(rec)

        self.env.process(_kernel_proc(), name=f"kernel:{name}")
        return sig
