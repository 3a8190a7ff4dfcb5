"""MapRace rules: intersect MHP pairs with buffer access summaries.

Three rules, matrices from each rule's ``breaks`` predicate in
:mod:`repro.check.findings`, like every other rule (frozen by the
registry snapshot test):

* **MC-S20** — a host write may happen in parallel with a kernel
  reading the same allocation.  Benign under Copy (the kernel reads its
  shadow-copy snapshot), a data race under every zero-copy
  configuration — the static twin of dynamic MC-R02.
* **MC-S21** — two threads' map constructs on the same allocation, at
  least one an exit, may happen in parallel: whichever side the device
  lock serializes first decides refcounts and transfers, under every
  configuration — the static twin of dynamic MC-R01.
* **MC-S22** — an application output reads a buffer a nowait region may
  still be writing (no wait on its handle orders the read): the result
  is nondeterministic everywhere, shadow copies included.

Reporting discipline matches the interpreter: only strong operands
(single allocation site, not weak/unknown) ever report, and two
operands must share a site *and* may-cover >= 1 byte by the symbolic
``nbytes_bounds`` interval before a pair becomes a finding.
"""

from __future__ import annotations

from typing import List, Tuple

from ...findings import Finding
from ..ir import AbstractBuffer, WorkloadIR
from ..rules import RawFinding, _xref, fold_findings
from .mhp import analyze_thread, mhp
from .model import Access, KernelFlight, ThreadAccesses, may_overlap

__all__ = ["RACE_RULE_IDS", "race_findings"]

#: the MapRace rules; their break predicates live with every other
#: rule's in :mod:`repro.check.findings`
RACE_RULE_IDS: Tuple[str, ...] = ("MC-S20", "MC-S21", "MC-S22")


class _RaceDetector:
    """Pair accesses/flights across (and within) threads into findings."""

    def __init__(self, threads: List[ThreadAccesses]):
        self.threads = threads
        self.raw: List[RawFinding] = []
        self._seen = set()

    def fire(self, rule_id: str, site: AbstractBuffer, message: str,
             lineno: int, tid: int, op_id: int, pair_key) -> None:
        key = (rule_id, site, pair_key)
        if key in self._seen:
            return
        self._seen.add(key)
        self.raw.append(RawFinding(rule_id, site, message, lineno, tid,
                                   op_id))

    # -- same-thread: an access overtakes this thread's own nowait flight
    def _same_thread(self, ta: ThreadAccesses) -> None:
        flights = {f.handle_id: f for f in ta.flights
                   if f.handle_id is not None}
        for acc in ta.accesses:
            if acc.kind not in ("host_write", "output_read"):
                continue
            for hid in sorted(acc.inflight):
                flight = flights.get(hid)
                if flight is None:
                    continue
                if acc.kind == "host_write":
                    self._write_vs_flight(acc, flight)
                else:
                    self._read_vs_flight(acc, flight)

    def _write_vs_flight(self, acc: Access, flight: KernelFlight) -> None:
        """MC-S20: host write while a kernel reading the range is in
        flight and the writer holds no wait edge to its completion."""
        for ref in flight.reads:
            if not ref.strong or ref.only != acc.site:
                continue
            if not may_overlap(acc.ref, ref):
                continue
            hb = (f"thread {flight.tid}'s" if flight.tid != acc.tid
                  else "its own")
            self.fire(
                "MC-S20", acc.site,
                f"host write of {acc.site.name!r} (tid {acc.tid}, line "
                f"{acc.lineno}) may happen while {hb} kernel "
                f"{flight.kernel!r} reading the range is in flight "
                f"(line {flight.lineno}) — no wait edge orders the "
                "write after completion; benign under Copy's shadow "
                "snapshot, a data race under every zero-copy "
                "configuration" + _xref("MC-S20"),
                acc.lineno, acc.tid, acc.op_id,
                pair_key=(acc.op_id, flight.op_id),
            )
            return

    def _read_vs_flight(self, acc: Access, flight: KernelFlight) -> None:
        """MC-S22: output read of a buffer a nowait region may write."""
        for ref in flight.writes:
            if not ref.strong or ref.only != acc.site:
                continue
            if not may_overlap(acc.ref, ref):
                continue
            key = f" into output {acc.context!r}" if acc.context else ""
            self.fire(
                "MC-S22", acc.site,
                f"result read of {acc.site.name!r}{key} (tid {acc.tid}, "
                f"line {acc.lineno}) while nowait kernel "
                f"{flight.kernel!r} writing it may still be in flight "
                f"(line {flight.lineno}) — no wait on its handle orders "
                "the read after the kernel" + _xref("MC-S22"),
                acc.lineno, acc.tid, acc.op_id,
                pair_key=(acc.op_id, flight.op_id),
            )
            return

    # -- cross-thread MHP pairs ------------------------------------------
    def _cross_thread(self, ta: ThreadAccesses, tb: ThreadAccesses) -> None:
        self._map_vs_map(ta, tb)
        for writer, runner in ((ta, tb), (tb, ta)):
            self._writes_vs_flights(writer, runner)
            self._reads_vs_flights(writer, runner)

    def _map_vs_map(self, ta: ThreadAccesses, tb: ThreadAccesses) -> None:
        """MC-S21: cross-thread enter/exit pairs, at least one exit."""
        for a in ta.accesses:
            if a.kind not in ("map_enter", "map_exit"):
                continue
            for b in tb.accesses:
                if b.kind not in ("map_enter", "map_exit"):
                    continue
                if a.kind == "map_enter" and b.kind == "map_enter":
                    continue  # enter/enter is what refcounting is for
                if a.site != b.site or not may_overlap(a.ref, b.ref):
                    continue
                if not mhp(a.phase, b.phase):
                    continue  # ordered by a barrier crossing
                ex = a if a.kind == "map_exit" else b
                other = b if ex is a else a
                self.fire(
                    "MC-S21", ex.site,
                    f"tid {other.tid} {other.kind.replace('_', '-')} "
                    f"(line {other.lineno}) and tid {ex.tid} map-exit "
                    f"(line {ex.lineno}) of {ex.site.name!r} may happen "
                    "in parallel — no barrier or wait edge orders them, "
                    "so refcounts/transfers depend on lock arrival "
                    "order" + _xref("MC-S21"),
                    ex.lineno, ex.tid, ex.op_id,
                    pair_key=(min(a.op_id, b.op_id), max(a.op_id, b.op_id)),
                )

    def _writes_vs_flights(self, writer: ThreadAccesses,
                           runner: ThreadAccesses) -> None:
        """MC-S20, cross-thread: a host write MHP with a kernel flight."""
        for acc in writer.accesses:
            if acc.kind != "host_write":
                continue
            for flight in runner.flights:
                if not mhp(acc.phase, flight.span):
                    continue
                if (flight.handle_id is not None
                        and flight.handle_id in acc.completed):
                    continue  # wait edge: write ordered after completion
                self._write_vs_flight(acc, flight)

    def _reads_vs_flights(self, reader: ThreadAccesses,
                          runner: ThreadAccesses) -> None:
        """MC-S22, cross-thread: an output read MHP with a nowait
        flight that may still be writing the buffer."""
        for acc in reader.accesses:
            if acc.kind != "output_read":
                continue
            for flight in runner.flights:
                if not flight.nowait:
                    continue
                if not mhp(acc.phase, flight.span):
                    continue
                if (flight.handle_id is not None
                        and flight.handle_id in acc.completed):
                    continue
                self._read_vs_flight(acc, flight)

    def run(self) -> List[RawFinding]:
        for ta in self.threads:
            self._same_thread(ta)
        for i, ta in enumerate(self.threads):
            for tb in self.threads[i + 1:]:
                self._cross_thread(ta, tb)
        return self.raw


def race_findings(ir: WorkloadIR) -> List[Finding]:
    """Run the MHP race analysis over one extracted workload IR."""
    threads = [analyze_thread(program) for program in ir.threads]
    return fold_findings(_RaceDetector(threads).run(), ir)
