"""§V.A.4 deep-dive: why Eager Maps trails Implicit Zero-Copy on QMCPack.

The paper quantifies the Eager-vs-IZC trade through four claims:

1. during the first ~hundred kernel launches, Implicit Z-C absorbs fault
   stalls "in the order of tens of milliseconds" that Eager avoids;
2. after the initial phase the difference drops to "milliseconds and
   lower", persisting only through the periodically re-allocated
   host-side reduction arrays;
3. the total first-touch advantage of Eager "sums to less than a second,
   in the order of a tenth of a second";
4. the prefault syscalls (>1.5 M ``svm_attributes_set`` calls) cost
   "a few seconds" over the whole run — more than the advantage buys.

:func:`eager_vs_izc_analysis` reruns the measurement and returns every
quantity, so the claims can be checked mechanically (see the Table I
benchmark and ``tests/test_deepdive.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.config import RuntimeConfig
from ..core.params import CostModel
from ..workloads.base import Fidelity
from ..workloads.qmcpack import QmcPackNio
from .runner import execute

__all__ = ["EagerVsIzc", "eager_vs_izc_analysis"]


@dataclass(frozen=True)
class EagerVsIzc:
    """Quantities behind the §V.A.4 narrative (all µs)."""

    first_n: int
    izc_first_n_stall_us: float     #: fault stalls in the first N launches
    izc_remaining_stall_us: float   #: fault stalls afterwards
    izc_total_stall_us: float       #: Eager's total first-touch advantage
    eager_svm_total_us: float       #: what Eager pays in prefault syscalls
    eager_svm_calls: int
    izc_steady_us: float
    eager_steady_us: float


def eager_vs_izc_analysis(
    *,
    size: int = 2,
    n_threads: int = 1,
    fidelity: Fidelity = Fidelity.FULL,
    first_n: int = 100,
    cost: Optional[CostModel] = None,
) -> EagerVsIzc:
    """Run the §V.A.4 comparison with per-kernel tracing."""
    izc = execute(
        QmcPackNio(size=size, n_threads=n_threads, fidelity=fidelity),
        RuntimeConfig.IMPLICIT_ZERO_COPY,
        cost=cost,
        kernel_trace=True,
    )
    eager = execute(
        QmcPackNio(size=size, n_threads=n_threads, fidelity=fidelity),
        RuntimeConfig.EAGER_MAPS,
        cost=cost,
    )
    head = izc.kernel_trace.total_fault_stall_us(first_n=first_n)
    total = izc.kernel_trace.total_fault_stall_us()
    return EagerVsIzc(
        first_n=first_n,
        izc_first_n_stall_us=head,
        izc_remaining_stall_us=total - head,
        izc_total_stall_us=total,
        eager_svm_total_us=eager.hsa_trace.total_us("svm_attributes_set"),
        eager_svm_calls=eager.hsa_trace.count("svm_attributes_set"),
        izc_steady_us=izc.steady_us,
        eager_steady_us=eager.steady_us,
    )
