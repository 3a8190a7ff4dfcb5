"""Trace race detector: conflicting concurrency in the DES event stream.

The simulation is deterministic, but the *trace* still exhibits real
concurrency: construct spans from different host threads overlap in
simulated time whenever neither blocked on the other.  Two conflicting
operations whose spans overlap have no synchronization edge between them
— the device lock serializes the table mutation itself, but not the
order, which is exactly a data race in the OpenMP sense.

MC-R02 is the configuration-dependent one: a host thread updating a
buffer while a kernel reads it is *benign under Copy* (the kernel works
on its own shadow device copy, snapshotted at map time) but corrupts
results under every zero-copy configuration, where the kernel reads the
host memory being written.  The paper's porting story in reverse:
discrete-GPU code that relied on copy isolation breaks on the APU.
"""

from __future__ import annotations

from typing import List

from .events import CheckRecorder
from .findings import Finding

__all__ = ["run_races"]


def _overlaps(a, b) -> bool:
    return (a.start < b.start + b.nbytes) and (b.start < a.start + a.nbytes)


def _conflicting_map_ops(rec: CheckRecorder, workload: str) -> List[Finding]:
    """MC-R01: two threads' map constructs on overlapping ranges whose
    spans overlap in time, at least one of them an exit.

    Enter/enter pairs are benign (refcounting is designed for them);
    enter-vs-exit and exit-vs-exit are order-dependent: whichever side
    the lock happens to serialize first decides whether data transfers
    or deallocation happen, so the program's meaning depends on a race.
    """
    ops = rec.map_ops
    if len({op.tid for op in ops}) <= 1:
        return []
    findings = []
    seen = set()
    # time-sorted sweep: only spans overlapping in time can conflict, so
    # compare each op against the still-active window, not all pairs.
    # Ops sharing a t0 (common: a race is two ops at the same instant)
    # tie-break on the recording sequence number, so finding order and
    # pair dedup are identical across runs and --jobs workers
    active: List = []
    for a in sorted(ops, key=lambda op: (op.t0, op.seq)):
        active = [b for b in active if b.t1 > a.t0]
        for b in active:
            if a.tid is None or b.tid is None or a.tid == b.tid:
                continue
            if a.op == "enter" and b.op == "enter":
                continue
            if not _overlaps(a, b):
                continue
            pair_key = (min(a.key, b.key), max(a.key, b.key), a.op, b.op)
            if pair_key in seen:
                continue
            seen.add(pair_key)
            exit_ev = a if a.op == "exit" else b
            findings.append(Finding(
                rule_id="MC-R01",
                buffer=exit_ev.name,
                workload=workload,
                time_us=exit_ev.t0,
                tid=exit_ev.tid,
                message=(
                    f"tid {b.tid} map-{b.op}({b.kind.value}) of {b.name!r} "
                    f"[{b.t0:.1f},{b.t1:.1f}]us and tid {a.tid} "
                    f"map-{a.op}({a.kind.value}) of {a.name!r} "
                    f"[{a.t0:.1f},{a.t1:.1f}]us overlap in time on "
                    "overlapping ranges with no synchronization edge — "
                    "refcounts/transfers depend on lock arrival order"
                ),
            ))
        active.append(a)
    return findings


def _host_write_vs_kernel(rec: CheckRecorder, workload: str) -> List[Finding]:
    """MC-R02: host write lands inside a kernel's flight window on a
    range the kernel reads, and the writer never waited on the kernel.

    The writing thread has a synchronization edge only if it waited on
    the kernel's completion signal *before* the write; a wait completes
    at or after ``end_us``, so any write strictly inside
    ``(submit_us, end_us)`` is unsynchronized by construction.
    """
    findings = []
    # one finding per (buffer, writer-tid, kernel); loop iterations that
    # repeat the same race fold into the first finding's `related` (the
    # MC-P01 repeat-offender treatment), so a churn loop reports once
    first = {}
    for w in rec.host_writes:
        wbuf = rec.buffers.get(w.key)
        if wbuf is None:
            continue
        for k in rec.kernels:
            if not k.completed or not (k.submit_us < w.t < k.end_us):
                continue
            for key in k.reads:
                kbuf = rec.buffers.get(key)
                if kbuf is None or not kbuf.range.overlaps(wbuf.range):
                    continue
                dedup = (w.key, w.tid, k.name)
                prior = first.get(dedup)
                if prior is not None:
                    ref = f"repeat at t={w.t:.1f}us (kid {k.kid})"
                    if ref not in prior.related:
                        prior.related += (ref,)
                    break
                finding = Finding(
                    rule_id="MC-R02",
                    buffer=w.name,
                    workload=workload,
                    time_us=w.t,
                    tid=w.tid,
                    message=(
                        f"tid {w.tid} writes {w.name!r} at t={w.t:.1f}us "
                        f"while kernel {k.name!r} (kid {k.kid}, tid {k.tid}) "
                        f"reading the range is in flight "
                        f"[{k.submit_us:.1f}, {k.end_us:.1f}]us — benign "
                        "under Copy (kernel reads its shadow copy snapshot) "
                        "but a data race under every zero-copy configuration"
                    ),
                )
                first[dedup] = finding
                findings.append(finding)
                break
    return findings


def run_races(rec: CheckRecorder, workload: str) -> List[Finding]:
    """Run both race rules over one recorded run."""
    return _conflicting_map_ops(rec, workload) + _host_write_vs_kernel(rec, workload)
