"""Portability lint: map clauses vs the dynamic access record (§IV.C).

The whole point of this analysis is the paper's second research
question: a program whose map clauses are wrong can still be *correct on
an APU* because zero-copy makes every map a no-op — the defect only
bites when the same binary moves to a discrete GPU (Legacy Copy
semantics) or to a configuration that runs with XNACK disabled.  Each
finding therefore carries ``breaks_under``/``passes_under`` sets over
the four runtime configurations: its rule's matrix, declared with the
rule's ``breaks`` predicate in :mod:`repro.check.findings`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .events import CheckRecorder, payload_hash
from .findings import Finding

__all__ = ["run_lint"]


def _missing_map(rec: CheckRecorder, workload: str) -> List[Finding]:
    """MC-P01: kernel touched memory with no live map entry / global.

    Coverage was evaluated at dispatch time against the live present
    table and the declare-target registry, so a buffer mapped for
    *earlier* kernels and unmapped since is correctly flagged.

    One finding per buffer: the first offending kernel owns the message,
    every further kernel touching the same unmapped buffer lands in the
    structured ``Finding.related`` list (rendered once, deduplicated), so
    the message stays bounded and deterministic no matter how many
    dispatches repeat the access.
    """
    findings = []
    seen: Dict[str, Finding] = {}
    for k in rec.kernels:
        for key in k.uncovered:
            if key in seen:
                ref = f"kernel {k.name!r} (kid {k.kid})"
                if ref not in seen[key].related:
                    seen[key].related += (ref,)
                continue
            buf = rec.buffers.get(key)
            name = buf.name if buf is not None else key
            f = Finding(
                rule_id="MC-P01",
                buffer=name,
                workload=workload,
                time_us=k.t_dispatch,
                tid=k.tid,
                message=(
                    f"kernel {k.name!r} (kid {k.kid}) dereferences "
                    f"{name!r} with no live map entry or declare-target "
                    "global covering it — works only because the APU "
                    "services the faults (XNACK); a discrete GPU or an "
                    "XNACK-off configuration hard-faults here"
                ),
            )
            seen[key] = f
            findings.append(f)
    return findings


def _tofrom_missing_from(
    rec: CheckRecorder, workload: str, outputs: Dict[str, object]
) -> List[Finding]:
    """MC-P02: device-written data discarded at the final destructive
    unmap, yet the host-side payload feeds a workload output.

    Replays each buffer's event timeline: ``last_sync`` is the payload
    hash at the last host<->device synchronization point; a destructive
    exit that neither copies back nor matches ``last_sync`` discarded
    device writes.  Under zero-copy there is one copy of the data, so
    the host "accidentally" sees those writes anyway — the classic
    works-on-APU-only bug.  Intentionally discarded scratch is filtered
    by requiring the buffer's final payload to actually appear in the
    workload's declared outputs.
    """
    out_arrays = {
        k: np.asarray(v) for k, v in outputs.items()
        if isinstance(v, np.ndarray)
    }

    class _State:
        __slots__ = ("last_sync", "current", "dirty_keys")

        def __init__(self, h):
            self.last_sync = h
            self.current = h
            self.dirty_keys = ()

    states: Dict[str, _State] = {}
    findings = []

    events = []
    for ev in rec.map_ops:
        events.append((ev.t1, 0, "map", ev))
    for k in rec.kernels:
        if k.completed:
            events.append((k.end_us, 1, "kernel", k))
    for u in rec.updates:
        events.append((u.t, 2, "update", u))
    for w in rec.host_writes:
        events.append((w.t, 3, "write", w))
    events.sort(key=lambda e: (e[0], e[1]))

    for _t, _pri, typ, ev in events:
        if typ == "map":
            st = states.setdefault(ev.key, _State(ev.payload_hash))
            st.current = ev.payload_hash
            if ev.sync_device or ev.sync_host:
                st.last_sync = ev.payload_hash
            if (ev.op == "exit" and ev.removed and not ev.sync_host
                    and st.current != st.last_sync):
                # device writes discarded; only a defect if the data
                # is an application result
                buf = rec.buffers.get(ev.key)
                matched = tuple(
                    k for k, arr in out_arrays.items()
                    if buf is not None and payload_hash(arr) == st.current
                )
                if matched:
                    findings.append(Finding(
                        rule_id="MC-P02",
                        buffer=ev.name,
                        workload=workload,
                        time_us=ev.t1,
                        tid=ev.tid,
                        message=(
                            f"buffer {ev.name!r} was written by kernels "
                            f"but its final map({ev.kind.value}) discards "
                            "the device data; the host still observes the "
                            "writes (zero-copy aliasing) and they feed "
                            f"output(s) {', '.join(matched)} — under Copy "
                            "semantics the host would keep the stale "
                            "pre-kernel values"
                        ),
                        output_keys=matched,
                    ))
        elif typ == "kernel":
            for key, h in ev.arg_hashes.items():
                st = states.setdefault(key, _State(h))
                st.current = h
        elif typ == "update":
            st = states.setdefault(ev.key, _State(ev.payload_hash))
            st.current = ev.payload_hash
            if ev.present:
                st.last_sync = ev.payload_hash
        else:  # host write
            st = states.setdefault(ev.key, _State(ev.payload_hash))
            st.current = ev.payload_hash
    return findings


def _stale_global(rec: CheckRecorder, workload: str) -> List[Finding]:
    """MC-P03: kernel read a global whose host value changed since the
    last sync.  USM kernels read *through* the host pointer, so they
    always see the latest value; every device-copy configuration reads
    the stale snapshot."""
    syncs: Dict[str, List] = {}
    for s in rec.global_syncs:
        syncs.setdefault(s.name, []).append(s)
    findings = []
    seen = set()
    for k in rec.kernels:
        for name, dispatch_hash in k.globals_read:
            if name in seen:
                continue
            synced = [s for s in syncs.get(name, []) if s.t <= k.t_dispatch]
            last = synced[-1].host_hash if synced else None
            if last is None or last != dispatch_hash:
                seen.add(name)
                findings.append(Finding(
                    rule_id="MC-P03",
                    buffer=name,
                    workload=workload,
                    time_us=k.t_dispatch,
                    tid=k.tid,
                    message=(
                        f"kernel {k.name!r} (kid {k.kid}) reads declare-target "
                        f"global {name!r} whose host value changed after the "
                        "last map(always,to:)/target-update sync — only USM's "
                        "pointer-to-host globals see the new value; every "
                        "device-copy configuration computes with the stale one"
                    ),
                ))
    return findings


def run_lint(
    rec: CheckRecorder,
    workload: str,
    outputs: Optional[Dict[str, object]] = None,
) -> List[Finding]:
    """Run all portability-lint rules over one recorded run."""
    findings = _missing_map(rec, workload)
    findings += _tofrom_missing_from(rec, workload, outputs or {})
    findings += _stale_global(rec, workload)
    return findings
