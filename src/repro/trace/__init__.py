"""Tracing and analysis: HSA call traces, kernel traces, statistics."""

from .chrome import to_chrome_trace, write_chrome_trace
from .analysis import (
    HsaCallRow,
    OverheadRow,
    hsa_call_comparison,
    overhead_decomposition,
)
from .hsa_trace import CallStats, HsaTrace, TraceEvent
from .kernel_trace import KernelTrace, RunLedger
from .stats import RepetitionStats, cov, median, order_of_magnitude

__all__ = [
    "CallStats",
    "HsaCallRow",
    "HsaTrace",
    "KernelTrace",
    "OverheadRow",
    "RepetitionStats",
    "RunLedger",
    "TraceEvent",
    "cov",
    "to_chrome_trace",
    "write_chrome_trace",
    "hsa_call_comparison",
    "median",
    "order_of_magnitude",
    "overhead_decomposition",
]
