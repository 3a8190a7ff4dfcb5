"""457.spC proxy: scalar-pentadiagonal solver with GB-scale map churn.

Paper structure (§V.B): "457.spC performs data allocations and data
deletions every 13 kernel launches, and the memory being allocated is in
the order of GBs.  Data allocations are synchronous w.r.t. subsequent
kernel launches […] Kernel executions inside the data allocation and data
deletion sequence may take up to 6% the time it takes to perform a single
allocation."  Additionally "host data is allocated on the program stack
at each of the containing host function invocation, and is first-touched
on the GPU every time the function is called" — the stack-array
re-faulting that makes Eager Maps the best configuration (8.10 vs 7.80).

Per cycle the proxy maps three ~1.4 GiB heap arrays (``to``), launches 13
solver kernels, and deletes the mappings; the host heap arrays persist,
but fresh 2 MiB *stack* arrays are allocated per invocation.  Under Copy
the GB-scale pool allocations dominate (they exceed the pool's retention
threshold, so every cycle pays full driver work); under zero-copy the
cycles cost only kernels plus (for XNACK configs) stack re-faults.
"""

from __future__ import annotations

import numpy as np

from ...memory.layout import GIB, MIB
from ...omp.api import OmpThread
from ...omp.mapping import MapClause, MapKind
from ..base import Fidelity, ThreadBody, Workload

__all__ = ["SpC457"]

#: three solver arrays mapped/unmapped per cycle ("order of GBs")
ARRAY_BYTES = int(1.4 * GIB)
N_ARRAYS = 3
#: per-invocation stack arrays (fresh addresses every call)
N_STACK_ARRAYS = 3
STACK_BYTES = 2 * MIB
KERNELS_PER_CYCLE = 13   #: "every 13 kernel launches"
KERNEL_US = 2300.0       #: ≲6 % of a single ~72 ms allocation
FULL_CYCLES = 600
PAYLOAD_N = 128


class SpC457(Workload):
    """The 457.spC proxy (single host thread)."""

    name = "457.spC"
    n_threads = 1

    def __init__(self, fidelity: Fidelity = Fidelity.FULL):
        super().__init__(fidelity)
        self.cycles = fidelity.steps(FULL_CYCLES)

    def make_body(self) -> ThreadBody:
        outputs = self.outputs
        cycles = self.cycles

        def body(th: OmpThread, tid: int):
            # heap arrays persist on the host for the whole run
            arrays = []
            for i in range(N_ARRAYS):
                buf = yield from th.alloc(
                    f"sp_u{i}", ARRAY_BYTES,
                    payload=np.linspace(0.0, 1.0, PAYLOAD_N) + i,
                )
                arrays.append(buf)

            def adi_sweep(args, _g):
                u, rhs, lhs = (args[f"sp_u{i}"] for i in range(N_ARRAYS))
                s = args["sp_stack0"]
                rhs[:] = 0.5 * (u + np.concatenate((u[-1:], u[:-1])))
                lhs[:] = 0.5 * (u + np.concatenate((u[1:], u[:1])))
                u += 0.01 * (rhs - lhs)
                s[0] = float(u.sum())

            for _cycle in range(cycles):
                # "data allocations … every 13 kernel launches"
                yield from th.target_enter_data(
                    [MapClause(b, MapKind.TO) for b in arrays]
                )
                # fresh per-invocation stack arrays (re-faulted by XNACK
                # configurations every call)
                stack_bufs = []
                for i in range(N_STACK_ARRAYS):
                    sb = yield from th.alloc(
                        f"sp_stack{i}", STACK_BYTES,
                        payload=np.zeros(8), region="stack",
                    )
                    stack_bufs.append(sb)
                yield from th.target_enter_data(
                    [MapClause(b, MapKind.TO) for b in stack_bufs]
                )

                for _k in range(KERNELS_PER_CYCLE):
                    yield from th.target(
                        "adi_sweep",
                        KERNEL_US,
                        maps=[MapClause(b, MapKind.ALLOC) for b in arrays]
                        + [MapClause(stack_bufs[0], MapKind.ALLOC)],
                        fn=adi_sweep,
                    )
                # data deletions end the cycle; one array carries results
                # out (stack payloads are never read on the host: without
                # a from-map their host visibility is configuration
                # dependent, i.e. not OpenMP-portable)
                yield from th.target_exit_data(
                    [MapClause(arrays[0], MapKind.FROM)]
                    + [MapClause(b, MapKind.DELETE) for b in arrays[1:]]
                )
                yield from th.target_exit_data(
                    [MapClause(b, MapKind.DELETE) for b in stack_bufs]
                )
                for sb in stack_bufs:
                    yield from th.free(sb)  # stack frame dies

            outputs.put("u0", arrays[0].payload.copy())
            outputs.put("u0_sum", float(arrays[0].payload.sum()))

        return body
