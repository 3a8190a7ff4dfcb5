"""Trace analyses that regenerate the paper's tables.

* :func:`hsa_call_comparison` — Table I: per-HSA-call counts for two
  configurations plus the Copy/* total-latency ratio.
* :func:`overhead_decomposition` — Table III: MM and MI overheads of one
  run, both numerically and as the paper's order-of-magnitude strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .hsa_trace import HsaTrace
from .kernel_trace import RunLedger
from .stats import order_of_magnitude

__all__ = [
    "HsaCallRow",
    "hsa_call_comparison",
    "OverheadRow",
    "overhead_decomposition",
]

#: The HSA calls Table I reports, with the paper's "Used for" annotation.
TABLE1_CALLS = (
    ("signal_wait_scacquire", "Kernel Completion"),
    ("memory_pool_allocate", "Allocate device memory"),
    ("memory_async_copy", "Memory copy"),
    ("signal_async_handler", "Memory copy"),
)


@dataclass(frozen=True)
class HsaCallRow:
    """One row of a Table I-style comparison."""

    call: str
    used_for: str
    count_a: int
    count_b: int
    latency_ratio: Optional[float]  #: total_us(a) / total_us(b); None = N/A

    def ratio_str(self) -> str:
        if self.latency_ratio is None:
            return "N/A"
        if self.latency_ratio >= 1e4:
            return f"{self.latency_ratio:.2e}"
        if self.latency_ratio >= 100:
            return f"{self.latency_ratio:,.0f}"
        return f"{self.latency_ratio:.2f}"


def hsa_call_comparison(trace_a: HsaTrace, trace_b: HsaTrace) -> List[HsaCallRow]:
    """Compare two HSA traces call-by-call (Table I's Copy vs Implicit Z-C)."""
    rows = []
    for call, used_for in TABLE1_CALLS:
        rows.append(
            HsaCallRow(
                call=call,
                used_for=used_for,
                count_a=trace_a.count(call),
                count_b=trace_b.count(call),
                latency_ratio=trace_a.latency_ratio(trace_b, call),
            )
        )
    return rows


@dataclass(frozen=True)
class OverheadRow:
    """One configuration row of a Table III-style decomposition."""

    config_label: str
    mm_us: float
    mi_us: float

    @property
    def mm_magnitude(self) -> str:
        return order_of_magnitude(self.mm_us)

    @property
    def mi_magnitude(self) -> str:
        return order_of_magnitude(self.mi_us)


def overhead_decomposition(config_label: str, ledger: RunLedger) -> OverheadRow:
    """MM/MI decomposition of one run (Table III semantics).

    MM is memory-management overhead (pool allocation + mapping copies +
    Eager prefaulting); MI is GPU first-touch fault stall inside kernels.
    """
    return OverheadRow(config_label=config_label, mm_us=ledger.mm_us, mi_us=ledger.mi_us)

