"""rocprof-style HSA API call tracing.

Table I of the paper is produced by ``rocprof`` HSA call tracing: per API
name, the number of calls and the total time spent in the call.  This
module collects exactly that, cheaply (two floats and an int per name on
the hot path), with an optional detailed mode that keeps every event for
timeline debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["HsaTrace", "CallStats", "TraceEvent"]


@dataclass
class CallStats:
    """Aggregate statistics for one HSA API entry point."""

    count: int = 0
    total_us: float = 0.0

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0


@dataclass(frozen=True)
class TraceEvent:
    """One traced call (detailed mode only)."""

    name: str
    start_us: float
    duration_us: float
    tag: str = ""


class HsaTrace:
    """Collector of HSA call counts and latencies."""

    def __init__(self, detailed: bool = False):
        self.stats: Dict[str, CallStats] = {}
        self.detailed = detailed
        self.events: List[TraceEvent] = []

    def record(self, name: str, start_us: float, duration_us: float, tag: str = "") -> None:
        st = self.stats.get(name)
        if st is None:
            st = CallStats()
            self.stats[name] = st
        st.count += 1
        st.total_us += duration_us
        if self.detailed:
            self.events.append(TraceEvent(name, start_us, duration_us, tag))

    # -- queries -----------------------------------------------------------
    def count(self, name: str) -> int:
        st = self.stats.get(name)
        return st.count if st else 0

    def total_us(self, name: str) -> float:
        st = self.stats.get(name)
        return st.total_us if st else 0.0

    def names(self) -> List[str]:
        return sorted(self.stats)

    def latency_ratio(self, other: "HsaTrace", name: str) -> Optional[float]:
        """Total-latency ratio ``self/other`` for one call name.

        Returns ``None`` when the other trace never issued the call (the
        paper prints "N/A" for signal_async_handler under Implicit Z-C).
        """
        mine = self.total_us(name)
        theirs = other.total_us(name)
        if theirs == 0.0:
            return None
        return mine / theirs

    def merge(self, other: "HsaTrace", detailed: Optional[bool] = None) -> "HsaTrace":
        """Combined trace (e.g. summing repetitions).

        ``detailed`` defaults to "both inputs are detailed": merging two
        timeline-bearing traces keeps their events (self's first, then
        other's — timeline order within each input is preserved).  Pass
        ``detailed=False`` to force a stats-only merge, or ``True`` to
        keep whatever events the inputs carry.
        """
        if detailed is None:
            detailed = self.detailed and other.detailed
        out = HsaTrace(detailed=detailed)
        for src in (self, other):
            for name, st in src.stats.items():
                dst = out.stats.setdefault(name, CallStats())
                dst.count += st.count
                dst.total_us += st.total_us
            if detailed:
                out.events.extend(src.events)
        return out

    def as_rows(self) -> List[tuple]:
        """(name, count, total_us, mean_us) rows sorted by total time."""
        rows = [
            (name, st.count, st.total_us, st.mean_us)
            for name, st in self.stats.items()
        ]
        rows.sort(key=lambda r: -r[2])
        return rows
