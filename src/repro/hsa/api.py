"""The traced HSA/ROCr runtime facade.

Everything the OpenMP plugin does to the hardware flows through this
class, so the rocprof-style trace it feeds is complete by construction.
Call names match the paper's Table I (leading ``hsa_``/``hsa_amd_``
prefixes dropped, as in the paper): ``signal_wait_scacquire``,
``memory_pool_allocate``, ``memory_async_copy``, ``signal_async_handler``,
``svm_attributes_set``.

Methods that consume simulated time are generators driven with ``yield
from`` inside a host-thread process, charging fixed delays as ``if not
env.fuse(us): yield env.timeout(us)``.  Asynchronous operations (SDMA
copies with their async handlers, kernel dispatches) hand back a
:class:`Signal` and run as chains of engine callbacks that start where a
process's bootstrap would have, then take their engine or queue and charge
their time fused where they can, else waiting as bare heap entries
(``Environment._schedule_call``); the events a process would have added
are still counted, so ``processed_events`` is unchanged.  Work the host
waits on at once (``dispatch_and_wait``, ``copy_and_wait``) runs that
chain in the host's own frame when the reference engine would run it next
(``Environment._inline``), and otherwise as the asynchronous call does.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence

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


class KernelRecord(NamedTuple):
    """Completion record carried on a kernel's signal."""

    name: str
    submit_us: float
    start_us: float
    end_us: float
    compute_us: float
    fault_stall_us: float
    n_faults: int


def _functional_copy(dst: np.ndarray, src: np.ndarray) -> None:
    """Move payload data; sizes may differ (modeled >> payload)."""
    n = min(dst.size, src.size)
    if n:
        dst.reshape(-1)[:n] = src.reshape(-1)[:n]


def _when_granted(res: Resource, then: Callable) -> None:
    """Call ``then(grant)`` once ``res`` grants a unit: at once if it is free."""
    grant = res.grab()
    if grant is not None:
        return then(grant)
    res.request(then)


def _after(env: Environment, us: float, then: Callable) -> None:
    """Call ``then()`` once ``us`` have passed: fused if it can."""
    if env.fuse(us):
        return then()
    env._schedule_call(then, us)


def _complete_after(env: Environment, sig: Signal, us: float, finish: Callable) -> None:
    """Complete ``sig`` with ``finish()`` once ``us`` have passed."""
    _after(env, us, lambda: sig.complete(finish()))


def _chain(env: Environment, sig: Signal, start: Callable) -> Callable:
    """The callback form of the chain ``start`` from its grant, completing ``sig``."""
    return lambda grant: _complete_after(env, sig, *start(grant))


class _Copy:
    """One SDMA copy; its bound methods are its chain's steps.  ``_sync``
    runs ``start(grant) -> (us, finish)``; an asynchronous copy runs
    ``begin`` → ``granted`` → ``done`` (completing ``sig``), and with a
    handler ``on_signal`` → ``handled``."""

    __slots__ = ("hsa", "dst", "src", "nbytes", "tag", "t_submit", "grant",
                 "sig", "handler", "dur")

    def __init__(self, hsa: "HsaRuntime", dst, src, nbytes: int, tag: str,
                 sig: Optional[Signal] = None, handler: bool = False):
        if nbytes < 0:
            raise ValueError(f"negative copy size {nbytes}")
        self.hsa, self.dst, self.src, self.nbytes, self.tag = hsa, dst, src, nbytes, tag
        self.t_submit = hsa.env.now
        self.sig, self.handler = sig, handler

    def start(self, grant) -> tuple:
        self.grant = grant
        hsa = self.hsa
        return hsa.op_jitter.apply(hsa.cost.copy_us(self.nbytes)), self.finish

    def finish(self) -> None:
        hsa = self.hsa
        if self.dst is not None and self.src is not None:
            _functional_copy(self.dst, self.src)
        hsa.sdma.release(self.grant)
        hsa.trace.record("memory_async_copy", self.t_submit,
                         hsa.env.now - self.t_submit, tag=self.tag)

    def begin(self) -> None:
        hsa = self.hsa
        if self.handler:
            self.sig.event.callbacks.append(self.on_signal)
            hsa.env._event_count += 1  # the handler's bootstrap, popped next
        _when_granted(hsa.sdma, self.granted)

    def granted(self, grant) -> None:
        _after(self.hsa.env, self.start(grant)[0], self.done)

    def done(self) -> None:
        self.finish()
        self.sig.complete()

    def on_signal(self, _ev) -> None:
        hsa = self.hsa
        self.dur = hsa.op_jitter.apply(hsa.cost.signal_handler_us)
        _after(hsa.env, self.dur, self.handled)

    def handled(self) -> None:
        sig = self.sig
        self.hsa.trace.record("signal_async_handler", sig.completed_at, self.dur,
                              tag=sig.tag)
        self.hsa.env._elide()  # the handler's end event


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
        handler: bool = False,
    ) -> Signal:
        """Submit an SDMA copy; returns its completion signal.

        The traced latency spans submit→complete, so engine queueing under
        multi-threaded load shows up in Table I's latency ratios exactly as
        it does under rocprof.  ``handler=True`` completes it through the
        async-handler path (no host wait), traced as ``signal_async_handler``:
        Legacy Copy's host-to-device transfers that a later barrier covers
        (zero-copy configurations never use it; Table I prints N/A).
        """
        sig = Signal(self.env, tag or "copy")
        copy = _Copy(self, dst, src, nbytes, tag, sig, handler)
        self.env._schedule_call(copy.begin)
        return sig

    def copy_and_wait(self, dst: Optional[np.ndarray], src: Optional[np.ndarray],
                      nbytes: int, tag: str):
        """(generator) ``memory_async_copy`` and ``signal_wait_scacquire``
        on its signal at once: Legacy Copy's synchronous transfers."""
        return self._sync(self.sdma, _Copy(self, dst, src, nbytes, tag).start, tag)

    def _sync(self, res: Resource, start: Callable, tag: str):
        """(generator) Run the chain ``start`` on ``res`` and wait on it at
        once; returns its value.  It runs in this frame as far as
        ``Environment._inline`` lets it, then as the asynchronous call does."""
        env = self.env
        t0 = env.now
        ran = env._inline(res, start)
        if ran is not None and ran[0]:
            return self._wait(t0, None, ran[1])
        sig = Signal(env, tag)
        if ran is None:
            env._schedule_call(lambda: _when_granted(res, _chain(env, sig, start)))
        else:
            _complete_after(env, sig, *ran[1])
        return self._wait(t0, sig)

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
        return (yield from self._wait(self.env.now, sig))

    def _wait(self, t0: float, sig: Optional[Signal], value=None):
        """(generator) A ``signal_wait_scacquire`` begun at ``t0`` on
        ``sig``, or on work already done with ``value``; returns the value."""
        env = self.env
        if sig is not None:
            value = yield sig.event
        base = self.op_jitter.apply(self.cost.signal_wait_base_us)
        if not env.fuse(base):
            yield env.timeout(base)
        self.trace.record("signal_wait_scacquire", t0, env.now - t0)
        return value

    def signal_wait_scacquire_all(self, sigs: Sequence[Signal]):
        """(generator) One barrier wait over several signals (one traced
        scacquire call, as when waiting a completion-signal barrier)."""
        t0 = self.env.now
        pending = [s.event for s in sigs if not s.done]
        if pending:
            yield AllOf(self.env, pending)
        yield from self._wait(t0, None)

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
        env = self.env
        sig = Signal(env, name)
        run = _chain(env, sig, self._kernel(name, compute_us, fn, fault_ranges, on_complete))
        env._schedule_call(lambda: _when_granted(self.queues, run))
        return sig

    def dispatch_and_wait(self, name, compute_us, fn=None, fault_ranges=None, on_complete=None):
        """(generator) :meth:`dispatch_kernel` (same arguments) and
        ``signal_wait_scacquire`` on its signal at once: a target region
        without ``nowait``.  Returns the :class:`KernelRecord`."""
        return self._sync(
            self.queues, self._kernel(name, compute_us, fn, fault_ranges, on_complete), name)

    def _kernel(self, name, compute_us, fn, fault_ranges, on_complete) -> Callable:
        """A kernel's chain from its queue grant (see ``_chain``)."""
        if compute_us < 0:
            raise ValueError(f"negative kernel time {compute_us}")
        env = self.env
        t_submit = env.now

        def start(grant):
            t_start = env.now
            fr = self.driver.service_xnack_faults(fault_ranges or [])

            def finish():
                if fn is not None:
                    fn()
                self.queues.release(grant)
                rec = KernelRecord(name, t_submit, t_start, env.now, compute_us,
                                   fr.stall_us, fr.n_faults)
                if on_complete is not None:
                    on_complete(rec)
                return rec

            return self.op_jitter.apply(
                self.cost.dispatch_us + compute_us + fr.stall_us), finish

        return start
