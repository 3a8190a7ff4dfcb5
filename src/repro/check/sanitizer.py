"""Mapping sanitizer: present-table invariants and teardown hygiene.

Consumes the raw table-operation channel (which sees rejected operations
*before* their exceptions propagate), the map-op stream and the final
present-table state.  Unlike the portability lint these defects are
wrong under *every* configuration — the per-config sets only grade the
blast radius (device memory leak under Copy vs bookkeeping rot under
zero-copy).
"""

from __future__ import annotations

from typing import List, Optional

from ..omp.mapping import AlwaysMisuseError, PresentTable, RefcountUnderflowError
from .events import CheckRecorder
from .findings import Finding

__all__ = ["run_sanitizer", "classify_abort"]


def _underflows_and_absent(rec: CheckRecorder, workload: str) -> List[Finding]:
    findings = []
    for ev in rec.table_ops:
        if ev.op == "underflow":
            findings.append(Finding(
                rule_id="MC-S01",
                buffer=ev.name,
                workload=workload,
                time_us=ev.t,
                message=(
                    f"map-exit of {ev.name!r} at refcount {ev.refcount} — "
                    "unbalanced exit would drive the refcount negative; "
                    "under Copy this double-frees the shadow device buffer"
                ),
            ))
        elif ev.op in ("release_absent", "retain_absent"):
            verb = "unmap" if ev.op == "release_absent" else "retain"
            findings.append(Finding(
                rule_id="MC-S03",
                buffer=ev.name,
                workload=workload,
                time_us=ev.t,
                message=(
                    f"{verb} of {ev.name!r} which has no present-table "
                    "entry (double unmap, or exit without a matching enter)"
                ),
            ))
    return findings


def _leaks(table: Optional[PresentTable], workload: str) -> List[Finding]:
    """MC-S02: entries alive after all threads finished (device teardown)."""
    if table is None:
        return []
    findings = []
    for entry in table.entries():
        findings.append(Finding(
            rule_id="MC-S02",
            buffer=entry.host.name,
            workload=workload,
            message=(
                f"present-table entry for {entry.host.name!r} still live at "
                f"device teardown (refcount {entry.refcount}) — a device "
                "memory leak under Copy, stale presence bookkeeping under "
                "the zero-copy configurations"
            ),
        ))
    return findings


def _use_after_unmap(rec: CheckRecorder, workload: str) -> List[Finding]:
    """MC-S04: a kernel argument's entry was destroyed mid-flight.

    A kernel's own implicit map-exit runs after its completion signal,
    so any removal strictly inside ``(submit_us, end_us)`` came from a
    *different* construct — a concurrent thread's exit-data, or the
    launching thread tearing down a ``nowait`` region it never waited
    on.  Under Copy the kernel is then computing on freed pool memory.
    """
    removals = [ev for ev in rec.map_ops if ev.op == "exit" and ev.removed]
    findings = []
    for k in rec.kernels:
        if not k.completed:
            continue
        refs = set(k.mapped) | set(k.touched)
        for ev in removals:
            if ev.key in refs and k.submit_us < ev.t1 < k.end_us:
                findings.append(Finding(
                    rule_id="MC-S04",
                    buffer=ev.name,
                    workload=workload,
                    time_us=ev.t1,
                    tid=ev.tid,
                    message=(
                        f"map({ev.kind.value}) destroyed the mapping of "
                        f"{ev.name!r} while kernel {k.name!r} (kid {k.kid}, "
                        f"tid {k.tid}) referencing it was in flight "
                        f"[{k.submit_us:.1f}, {k.end_us:.1f}]us — under Copy "
                        "the kernel reads freed device memory"
                    ),
                ))
    return findings


def classify_abort(exc: BaseException, workload: str) -> Optional[Finding]:
    """Turn an instrumented-run exception into a finding when it maps to
    a sanitizer rule (the observer channel already covers most of these;
    this catches defects raised at clause *construction* time)."""
    if isinstance(exc, AlwaysMisuseError):
        return Finding(
            rule_id="MC-S05",
            buffer="",
            workload=workload,
            message=f"'always' modifier misuse: {exc}",
        )
    if isinstance(exc, RefcountUnderflowError):
        return None  # already reported through the table observer
    return None


def run_sanitizer(
    rec: CheckRecorder,
    workload: str,
    table: Optional[PresentTable] = None,
    aborted: Optional[BaseException] = None,
) -> List[Finding]:
    """Run all mapping-sanitizer rules over one recorded run."""
    findings = _underflows_and_absent(rec, workload)
    findings += _leaks(table, workload)
    findings += _use_after_unmap(rec, workload)
    if aborted is not None:
        extra = classify_abort(aborted, workload)
        if extra is not None:
            findings.append(extra)
    return findings
