"""The OpenMP offloading runtime (libomptarget model).

Owns the present table, the device lock, the policy object for the active
:class:`~repro.core.config.RuntimeConfig`, and device initialization.
Device init reproduces the structure visible in the paper's Table I for
Implicit Zero-Copy — which performs storage operations *only* during
initialization: three ``memory_async_copy`` calls (device image, offload
table, device environment) and a small number of pool allocations (9 for
the runtime itself plus 10 per registered host thread for queues, signal
pools and kernarg regions; the paper reports 19 calls with one thread and
90 with eight).

The runtime's fixed bookkeeping delays go through
``if not env.fuse(us): yield us`` and its device-lock grants
through ``lock.grab() or (yield lock)``, or ``lock.hold(us)``
for a cycle that holds only a charge (see :mod:`repro.sim.core`):
sequential libomptarget/HSA call costs on an
uncontended host thread fuse into one clock adjustment without a
scheduler round trip, and :attr:`RunResult.sim_events` still counts one
event per charge and per grant, so run telemetry is bit-identical
between the fast and reference engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..core.config import RuntimeConfig
from ..core.params import CostModel
from ..core.policies import DataPolicy, make_policy
from ..core.system import ApuSystem
from ..hsa.api import HsaRuntime, KernelRecord
from ..memory.layout import KIB, MIB
from ..sim import Mutex
from ..trace.hsa_trace import HsaTrace
from ..trace.kernel_trace import KernelTrace, RunLedger
from .globals_ import GlobalRegistry, GlobalVar
from .mapping import PresentTable
from .memmgr import MemoryManager

__all__ = ["OpenMPRuntime", "RunResult"]

#: (name, bytes) of the host→device transfers performed at device init.
_INIT_IMAGES = (
    ("device-image", 128 * MIB),
    ("offload-table", 8 * MIB),
    ("device-environment", 1 * MIB),
)

#: runtime-owned pool allocations at init (name, bytes)
_INIT_POOL_ALLOCS = (
    ("image-memory", 24 * MIB),
    ("offload-entries", 256 * KIB),
    ("device-env", 4 * KIB),
    ("printf-buffer", 1 * MIB),
    ("device-stack", 16 * MIB),
    ("device-heap", 64 * MIB),
    ("args-pool-a", 512 * KIB),
    ("args-pool-b", 512 * KIB),
    ("trace-buffer", 2 * MIB),
)

#: per-host-thread pool allocations (AQL queue, signals, kernargs, ...)
_PER_THREAD_POOL_ALLOCS = (
    ("aql-queue", 4 * MIB),
    ("queue-ring", 1 * MIB),
    ("signal-pool", 256 * KIB),
    ("kernarg-pool", 1 * MIB),
    ("barrier-packets", 64 * KIB),
    ("doorbell-page", 4 * KIB),
    ("completion-pool", 256 * KIB),
    ("staging-a", 2 * MIB),
    ("staging-b", 2 * MIB),
    ("exception-buffer", 64 * KIB),
)

#: most kernel records one enabled kernel trace keeps; later launches
#: are counted in ``KernelTrace.dropped``
_KERNEL_TRACE_CAP = 200_000


@dataclass
class RunResult:
    """Everything one simulated application run produced."""

    config: RuntimeConfig
    n_threads: int
    elapsed_us: float
    init_us: float
    hsa_trace: HsaTrace
    ledger: RunLedger
    kernel_trace: KernelTrace
    marks: Dict[str, float] = field(default_factory=dict)
    peak_hbm_bytes: int = 0
    outputs: Dict[str, object] = field(default_factory=dict)
    #: discrete-event count the run pushed through the simulation engine
    #: (throughput denominator of perfbench's ``sim_events_per_s``)
    sim_events: int = 0

    @property
    def steady_us(self) -> float:
        """Steady-state duration between ``steady_start``/``steady_end``
        marks; falls back to post-init elapsed time."""
        start = self.marks.get("steady_start", self.init_us)
        end = self.marks.get("steady_end", self.elapsed_us)
        return end - start


class OpenMPRuntime:
    """One device's offloading runtime under a fixed configuration."""

    def __init__(
        self,
        system: ApuSystem,
        config: RuntimeConfig,
        kernel_trace: bool = False,
    ):
        self.system = system
        self.env = system.env
        self.cost: CostModel = system.cost
        self.hsa: HsaRuntime = system.hsa
        self.config = config
        # §IV: USM / Implicit Z-C run with XNACK enabled; Copy and Eager
        # Maps do not need (and here do not use) XNACK — any unprefaulted
        # GPU touch under those configurations is a hard error.
        system.driver.xnack_enabled = config.needs_xnack
        self.table = PresentTable()
        self.lock = Mutex(self.env, "libomptarget-device-lock")
        self.mm_lock = Mutex(self.env, "process-mm-lock")
        self.ledger = RunLedger()
        self.kernel_trace = KernelTrace(enabled=kernel_trace, max_records=_KERNEL_TRACE_CAP)
        self.globals = GlobalRegistry()
        self.device_mem = MemoryManager(
            self.hsa, self.cost, enabled=self.cost.memmgr_enabled
        )
        self.policy: DataPolicy = make_policy(config, self)
        self.marks: Dict[str, float] = {}
        #: optional hook adjusting a kernel's compute time from its map
        #: clauses (used by the multi-socket card model to charge remote
        #: HBM access penalties); signature (clauses, compute_us) -> us
        self.kernel_cost_adjuster = None
        #: optional MapCheck event recorder (``repro.check.events``);
        #: attached via ``repro.check.instrument``, None in normal runs
        self.recorder = None
        self._initialized = False
        self._init_us = 0.0

    # ------------------------------------------------------------------
    # program image
    # ------------------------------------------------------------------
    def declare_target(self, name: str, value: np.ndarray,
                       nbytes: Optional[int] = None) -> GlobalVar:
        """Register a ``#pragma omp declare target`` global.

        Must happen before :meth:`run` (it is a property of the program
        image, not a runtime action).  ``nbytes`` sets the modeled size
        when it exceeds the functional payload (same duality as buffers).
        """
        if self._initialized:
            raise RuntimeError("declare_target after device initialization")
        value = np.asarray(value, dtype=np.float64).copy()
        rng = self.system.os_alloc.alloc(max(nbytes or 0, value.nbytes, 8))
        glob = GlobalVar(name, value, rng)
        self.globals.register(glob)
        return glob

    # ------------------------------------------------------------------
    # device init
    # ------------------------------------------------------------------
    def _init_device(self):
        """(generator) Load the device image and runtime structures."""
        sigs = []
        for name, nbytes in _INIT_IMAGES:
            sigs.append(self.hsa.memory_async_copy(None, None, nbytes, tag=name))
        yield from self.hsa.signal_wait_scacquire_all(sigs)
        for _name, nbytes in _INIT_POOL_ALLOCS:
            yield from self.hsa.memory_pool_allocate(nbytes)
        for glob in self.globals.all():
            self.policy.init_global(glob)
            if not glob.usm_pointer:
                np.copyto(glob.device_payload, glob.host_payload)
            if self.recorder is not None:
                self.recorder.note_global_sync(None, self.env.now, glob)
        self._initialized = True

    def _init_thread_resources(self):
        """(generator) Per-host-thread HSA resources (first offload)."""
        for _name, nbytes in _PER_THREAD_POOL_ALLOCS:
            yield from self.hsa.memory_pool_allocate(nbytes)

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def mark(self, name: str, first: bool = True) -> None:
        """Record a named time mark.  ``first=True`` keeps the earliest
        occurrence (phase starts); ``first=False`` the latest (phase ends)."""
        now = self.env.now
        if name not in self.marks:
            self.marks[name] = now
        else:
            pick = min if first else max
            self.marks[name] = pick(self.marks[name], now)

    def run(
        self,
        thread_body: Callable[["OmpThread", int], object],
        n_threads: int = 1,
        outputs: Optional[Dict[str, object]] = None,
    ) -> RunResult:
        """Execute ``thread_body(thread, tid)`` on ``n_threads`` simulated
        OpenMP host threads and return the :class:`RunResult`.

        ``thread_body`` must return a generator (it is a simulated
        process).  All threads offload to the single GPU device, sharing
        the present table, device lock and HSA runtime — the setup of the
        paper's QMCPack experiments.
        """
        from .api import OmpThread  # local import to avoid a cycle

        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        env = self.env
        t_start = env.now

        def _main():
            yield from self._init_device()
            for _ in range(n_threads):
                yield from self._init_thread_resources()
            self._init_us = env.now - t_start
            threads = [OmpThread(self, tid) for tid in range(n_threads)]
            procs = [
                env.process(thread_body(th, th.tid), name=f"omp-thread-{th.tid}")
                for th in threads
            ]
            for p in procs:
                yield p

        env.run(env.process(_main(), name="omp-main"))
        return RunResult(
            config=self.config,
            n_threads=n_threads,
            elapsed_us=env.now - t_start,
            init_us=self._init_us,
            hsa_trace=self.system.hsa_trace,
            ledger=self.ledger,
            kernel_trace=self.kernel_trace,
            marks=dict(self.marks),
            peak_hbm_bytes=self.system.physical.peak_bytes,
            outputs=outputs or {},
            sim_events=env.processed_events,
        )

    def run_workload(self, workload) -> RunResult:
        """Run a :class:`~repro.workloads.base.Workload`: its ``prepare``
        (declare-target globals), then its body on ``n_threads`` threads,
        with its outputs attached to the result."""
        workload.prepare(self)
        return self.run(
            workload.make_body(),
            n_threads=workload.n_threads,
            outputs=workload.outputs.values,
        )

    # hook used by OmpThread at kernel completion
    def _on_kernel_complete(self, rec: KernelRecord) -> None:
        self.ledger.n_kernels += 1
        self.ledger.kernel_compute_us += rec.compute_us
        self.ledger.mi_us += rec.fault_stall_us
        self.ledger.n_faulted_pages += rec.n_faults
        self.kernel_trace.record(rec)
