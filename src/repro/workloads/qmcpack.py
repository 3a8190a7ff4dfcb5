"""QMCPack NiO proxy: the paper's production-application workload.

QMCPack (§V.A) is a quantum Monte Carlo application with >50 target
constructs, two discrete-GPU optimizations the paper studies —
ahead-of-time bulk data transfer and multi-threaded data-transfer latency
hiding — and a steady state dominated by many small kernels each wrapped
in ``always``-modified maps of small parameter/result buffers.

The proxy encodes the structural features §V.A uses to explain every
observed trend:

* **Fixed walker population, per-thread crowds.**  ``WALKERS`` total
  walkers are split across the OpenMP host threads; every thread runs the
  same number of MC steps and launches the same number of kernels per
  step, so total kernel count scales ~linearly with threads (Table I:
  Implicit Z-C signal waits 99,627 → 738,483 from 1 to 8 threads) while
  total compute stays fixed (each kernel processes a smaller crowd).
* **Ahead-of-time transfer.**  Thread 0 maps the read-only spline table
  (split into chunks so first-touch spreads over the first kernels) with
  ``map(to:)`` at setup — a single bulk HBM-to-HBM copy under Copy, a
  first-touch XNACK stream under Implicit Z-C/USM, a prefault under
  Eager.
* **Steady-state always-maps.**  Every kernel carries two ``always to``
  parameter buffers and one ``always from`` cross-team-reduction buffer:
  under Copy that is 2 async H2D (async-handler completion) + 1 barrier
  wait + 1 synchronous D2H per kernel — the 3:2 ratio between
  ``memory_async_copy`` and ``signal_async_handler`` in Table I.
* **Per-step scratch (re)allocation.**  Each step allocates/deletes
  per-walker-batch scratch: a constant total of ``BATCH_ALLOCS_PER_STEP``
  device allocations per step under Copy (Table I's ~23 k pool-allocate
  calls at full fidelity), pure bookkeeping under zero-copy.
* **Host-side reduction buffers refreshed periodically** — the §V.A.4
  "persisting difference" between Eager Maps and Implicit Z-C: a fresh
  host allocation re-faults under XNACK but is cheaply prefaulted by
  Eager.

Sizes follow NiO problem scaling: kernel time grows ~``s^0.96`` (the
paper reports ×10 total kernel time from S2 to S24, a ×12 size step) and
per-kernel transfer sizes grow ``s^0.65`` (copy traffic grows about half
as fast as kernel time, §V.A.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..memory.layout import KIB, MIB
from ..omp.api import OmpThread
from ..omp.mapping import MapClause, MapKind
from .base import Fidelity, ThreadBody, Workload

__all__ = ["QmcPackNio", "NIO_SIZES", "nio_parameters"]

#: NiO problem sizes studied in the paper (S1 exists but is excluded from
#: the figures as runtime-dominated; we keep it available).
NIO_SIZES = (1, 2, 4, 8, 16, 24, 32, 48, 64, 128)

#: fixed total walker population (crowds = walkers / threads)
WALKERS = 128

#: full-fidelity steady state: steps × kernels/step ≈ 99.4 k kernels per
#: thread, matching Table I's Implicit Z-C signal-wait count (99,627)
FULL_STEPS = 1400
KERNELS_PER_STEP = 71

#: per-step device scratch allocations (total across threads); at full
#: fidelity 1400 × 16 = 22,400 ≈ Table I's 23,277 Copy pool allocations
BATCH_ALLOCS_PER_STEP = 16

#: reduction host buffers are reallocated every this many steps
REDUCTION_REFRESH_STEPS = 64

#: spline table is split into chunks so zero-copy first touch spreads
#: over the first kernel launches (§V.A.4's "first hundred launches")
SPLINE_CHUNKS = 16

#: steps before the steady-state measurement window opens — the window
#: must exclude working-set first touch so that scaled-down fidelities
#: report the same steady-state ratios as paper-scale runs
WARMUP_STEPS = 2


@dataclass(frozen=True)
class NioParams:
    """Derived sizing for one problem size and thread count."""

    size: int
    n_threads: int
    steps: int
    kernels_per_step: int
    walkers_per_thread: int
    spline_bytes: int
    walker_bytes_per_thread: int
    param_bytes: int
    reduction_bytes: int
    scratch_bytes: int
    kernel_compute_us: float


def nio_parameters(size: int, n_threads: int, fidelity: Fidelity) -> NioParams:
    """Sizing model for NiO S{size} with ``n_threads`` host threads."""
    if size not in NIO_SIZES:
        raise ValueError(f"unknown NiO size S{size}; choose from {NIO_SIZES}")
    if not 1 <= n_threads <= WALKERS:
        raise ValueError(f"n_threads must be in [1, {WALKERS}]")
    rel = size / 2.0  # S2 is the reference point
    walkers_t = max(1, WALKERS // n_threads)
    return NioParams(
        size=size,
        n_threads=n_threads,
        steps=fidelity.steps(FULL_STEPS),
        kernels_per_step=KERNELS_PER_STEP,
        walkers_per_thread=walkers_t,
        # read-only shared spline table: ~260 MiB at S2 (first-touch cost
        # "in the order of a tenth of a second", §V.A.4)
        spline_bytes=int(260 * MIB * rel**0.7),
        walker_bytes_per_thread=int(2 * MIB * walkers_t * rel**0.9 / 8),
        param_bytes=int(48 * KIB * rel**1.45),
        reduction_bytes=int(16 * KIB * rel**0.8),
        scratch_bytes=int(1.5 * MIB * rel**0.65),
        # per-kernel compute: ~30 µs for the full crowd at S2, split
        # across crowds; grows s^0.96 (×10 kernel time S2→S24, §V.A.3)
        kernel_compute_us=30.0 * rel**0.96 * (walkers_t / WALKERS),
    )


class QmcPackNio(Workload):
    """The NiO performance test proxy."""

    def __init__(
        self,
        size: int = 2,
        n_threads: int = 1,
        fidelity: Fidelity = Fidelity.BENCH,
    ):
        super().__init__(fidelity)
        self.name = f"qmcpack-nio-S{size}"
        self.n_threads = n_threads
        self.params = nio_parameters(size, n_threads, fidelity)

    # ------------------------------------------------------------------
    def make_body(self) -> ThreadBody:
        p = self.params
        outputs = self.outputs
        spline_chunks: List = []  # shared across threads (read-only)
        setup_done = {"count": 0}
        teardown_done = {"count": 0}

        def body(th: OmpThread, tid: int):
            # the spin-waits below poll every 50 µs as bare sleeps
            # ---------------- setup: ahead-of-time data transfer --------
            if tid == 0:
                chunk = max(p.spline_bytes // SPLINE_CHUNKS, 1)
                for c in range(SPLINE_CHUNKS):
                    rng = np.arange(16.0) + c
                    buf = yield from th.alloc(f"spline{c}", chunk, payload=rng)
                    spline_chunks.append(buf)
                # bulk transfer at application start (§V.A optimization 1)
                yield from th.target_enter_data(
                    [MapClause(b, MapKind.TO) for b in spline_chunks]
                )
            else:
                # other threads wait for the shared table to be published
                while len(spline_chunks) < SPLINE_CHUNKS:
                    yield 50.0

            walkers = yield from th.alloc(
                f"walkers{tid}",
                max(p.walker_bytes_per_thread, 1),
                payload=np.full(p.walkers_per_thread * 4, float(tid + 1)),
            )
            par_a = yield from th.alloc(
                f"par_a{tid}", p.param_bytes, payload=np.full(8, 1.000001)
            )
            par_b = yield from th.alloc(
                f"par_b{tid}", p.param_bytes, payload=np.full(8, 1e-7)
            )
            scratch = yield from th.alloc(f"scratch{tid}", p.scratch_bytes)
            yield from th.target_enter_data(
                [
                    MapClause(walkers, MapKind.TO),
                    MapClause(par_a, MapKind.TO),
                    MapClause(par_b, MapKind.TO),
                ]
            )
            setup_done["count"] += 1
            while setup_done["count"] < p.n_threads:
                yield 50.0

            # ---------------- steady state -----------------------------
            reduction = yield from th.alloc(
                f"red{tid}", p.reduction_bytes, payload=np.zeros(8)
            )
            yield from th.target_enter_data([MapClause(reduction, MapKind.TO)])
            acc = 0.0
            red_gen = 0
            batch_allocs = max(1, BATCH_ALLOCS_PER_STEP // p.n_threads)
            kid = 0
            wname, aname, bname, rname = (
                walkers.name, par_a.name, par_b.name, reduction.name,
            )

            def kernel(args: Dict[str, np.ndarray], _g, kid_=None):
                w = args[wname]
                w *= args[aname][0]
                w += args[bname][0]
                args[rname][0] = float(w[0]) + float(w[-1])

            for step in range(p.steps):
                if step == WARMUP_STEPS:
                    # first-touch of the working set is over; the steady
                    # window starts once the *last* thread gets here
                    th.mark("steady_start", first=False)
                # per-step scratch (re)mapping: device alloc/free per step
                # under Copy, bookkeeping under zero-copy
                for _ in range(batch_allocs):
                    yield from th.target_enter_data([MapClause(scratch, MapKind.TO)])
                    yield from th.target_exit_data([MapClause(scratch, MapKind.DELETE)])
                # drift/diffusion/energy kernels over the crowd
                for _k in range(p.kernels_per_step):
                    chunk = spline_chunks[kid % SPLINE_CHUNKS]
                    yield from th.target(
                        "mc_step",
                        p.kernel_compute_us,
                        maps=[
                            MapClause(par_a, MapKind.TO, always=True),
                            MapClause(par_b, MapKind.TO, always=True),
                            MapClause(reduction, MapKind.FROM, always=True),
                            MapClause(walkers, MapKind.ALLOC),
                            MapClause(chunk, MapKind.ALLOC),
                        ],
                        fn=kernel,
                    )
                    acc += reduction.payload[0]
                    kid += 1
                # periodic host-side reduction-buffer refresh (§V.A.4)
                if (step + 1) % REDUCTION_REFRESH_STEPS == 0:
                    yield from th.target_exit_data(
                        [MapClause(reduction, MapKind.DELETE)]
                    )
                    yield from th.free(reduction)
                    red_gen += 1
                    reduction = yield from th.alloc(
                        f"red{tid}", p.reduction_bytes, payload=np.zeros(8)
                    )
                    yield from th.target_enter_data(
                        [MapClause(reduction, MapKind.TO)]
                    )

            th.mark("steady_end", first=False)
            # ---------------- teardown ---------------------------------
            yield from th.target_exit_data([MapClause(reduction, MapKind.DELETE)])
            yield from th.target_exit_data(
                [
                    MapClause(walkers, MapKind.FROM),
                    MapClause(par_a, MapKind.RELEASE),
                    MapClause(par_b, MapKind.RELEASE),
                ]
            )
            # the shared spline table is unmapped once every thread is
            # done with it (outside the measurement window, so Table I
            # call counts and steady-state ratios are unaffected)
            teardown_done["count"] += 1
            if tid == 0:
                while teardown_done["count"] < p.n_threads:
                    yield 50.0
                yield from th.target_exit_data(
                    [MapClause(b, MapKind.RELEASE) for b in spline_chunks]
                )
            outputs.put(f"acc{tid}", acc)
            outputs.put(f"walkers{tid}", walkers.payload.copy())

        return body
