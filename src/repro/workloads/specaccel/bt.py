"""470.bt proxy: block-tridiagonal solver with >2 GB allocation cycles.

Paper structure (§V.B): "470.bt is similar [to 457.spC], except that the
largest data allocation is above 2GBs, 10 kernels are executed between
the data allocation and data deletion sequence, and the most time
consuming kernel is approximately 30% of the time it takes to execute the
largest data allocation."  Like spC it re-faults per-invocation stack
arrays under the XNACK configurations, which is why Eager Maps wins
(Table II: 5.10 vs 4.88/4.77).
"""

from __future__ import annotations

import numpy as np

from ...memory.layout import GIB, MIB
from ...omp.api import OmpThread
from ...omp.mapping import MapClause, MapKind
from ..base import Fidelity, ThreadBody, Workload

__all__ = ["Bt470"]

#: largest allocation "above 2GBs" plus two companions
ARRAY_BYTES = (int(2.5 * GIB), GIB, GIB)
KERNELS_PER_CYCLE = 10
#: top kernel ≈ 30 % of the largest allocation (1280 pages × 100 µs)
TOP_KERNEL_US = 38_400.0
OTHER_KERNEL_US = 2_000.0
N_STACK_ARRAYS = 6
STACK_BYTES = 2 * MIB
FULL_CYCLES = 500
PAYLOAD_N = 96


class Bt470(Workload):
    """The 470.bt proxy (single host thread)."""

    name = "470.bt"
    n_threads = 1

    def __init__(self, fidelity: Fidelity = Fidelity.FULL):
        super().__init__(fidelity)
        self.cycles = fidelity.steps(FULL_CYCLES)

    def make_body(self) -> ThreadBody:
        outputs = self.outputs
        cycles = self.cycles

        def body(th: OmpThread, tid: int):
            arrays = []
            for i, nbytes in enumerate(ARRAY_BYTES):
                buf = yield from th.alloc(
                    f"bt_u{i}", nbytes,
                    payload=np.linspace(-1.0, 1.0, PAYLOAD_N) * (i + 1),
                )
                arrays.append(buf)

            def bt_solve(args, _g):
                u, lhs, rhs = (args[f"bt_u{i}"] for i in range(3))
                rhs[:] = u - 0.25 * (np.concatenate((u[-1:], u[:-1])) + np.concatenate((u[1:], u[:1])) - 2 * u)
                lhs[:] = 0.5 * (rhs + np.concatenate((rhs[-1:], rhs[:-1])))
                u -= 0.001 * lhs

            for _cycle in range(cycles):
                yield from th.target_enter_data(
                    [MapClause(b, MapKind.TO) for b in arrays]
                )
                stack_bufs = []
                for i in range(N_STACK_ARRAYS):
                    sb = yield from th.alloc(
                        f"bt_stack{i}", STACK_BYTES,
                        payload=np.zeros(8), region="stack",
                    )
                    stack_bufs.append(sb)
                yield from th.target_enter_data(
                    [MapClause(b, MapKind.TO) for b in stack_bufs]
                )

                for k in range(KERNELS_PER_CYCLE):
                    yield from th.target(
                        "bt_top" if k == 0 else "bt_sweep",
                        TOP_KERNEL_US if k == 0 else OTHER_KERNEL_US,
                        maps=[MapClause(b, MapKind.ALLOC) for b in arrays]
                        + [MapClause(stack_bufs[k % N_STACK_ARRAYS], MapKind.ALLOC)],
                        fn=bt_solve,
                    )

                yield from th.target_exit_data(
                    [MapClause(arrays[0], MapKind.FROM)]
                    + [MapClause(b, MapKind.DELETE) for b in arrays[1:]]
                )
                yield from th.target_exit_data(
                    [MapClause(b, MapKind.DELETE) for b in stack_bufs]
                )
                for sb in stack_bufs:
                    yield from th.free(sb)

            outputs.put("u0", arrays[0].payload.copy())
            outputs.put("residual", float(np.abs(arrays[0].payload).sum()))

        return body
