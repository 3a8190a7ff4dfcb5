"""Backfill source locations onto dynamic findings from the static IR.

The dynamic analyses observe *events*, not source, so their findings
historically carried ``source=None`` while every static/perf finding
carried a real ``(path, line)``.  MapFix (and SARIF viewers) want every
finding located, so after a dynamic check the runner re-extracts the
workload and maps each unlocated finding to the best line the IR knows:

* a buffer name resolves to its allocation site;
* a declare-target global resolves to the first dispatch/sync that
  uses it;
* an output-divergence finding (MC-P04) resolves to the ``outputs.put``
  site of its key;
* an ``always``-misuse finding resolves to the offending clause's
  enter/exit.

Backfilling is best-effort and purely additive: extraction failures are
swallowed and findings that cannot be resolved keep ``source=None``.
The baseline fingerprint (``rule:workload:buffer``) never includes the
line, so backfilled locations are baseline-compatible by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .findings import Finding
from .static.ir import (
    EnterOp,
    ExitOp,
    GlobalSyncOp,
    OutputOp,
    TargetOp,
    WorkloadIR,
)
from .static.rules import _relative_source

__all__ = ["backfill_sources"]

#: map kinds whose ``always`` modifier never transfers (mirrors the
#: dynamic sanitizer's MC-S05 predicate)
_NON_TRANSFER = frozenset({"alloc", "release", "delete"})


def _index(ir: WorkloadIR) -> Tuple[Dict[str, int], Dict[str, int],
                                    Dict[str, int], Optional[int]]:
    alloc: Dict[str, int] = {}
    for th in ir.threads:
        for buf in th.buffers.values():
            if buf.lineno and (buf.name not in alloc
                               or buf.lineno < alloc[buf.name]):
                alloc[buf.name] = buf.lineno
    globals_: Dict[str, int] = {}
    outputs: Dict[str, int] = {}
    always_line: Optional[int] = None
    for op in ir.ops():
        if isinstance(op, TargetOp):
            for g in op.globals_used:
                globals_.setdefault(g, op.lineno)
        elif isinstance(op, GlobalSyncOp):
            globals_.setdefault(op.name, op.lineno)
        elif isinstance(op, OutputOp):
            if op.key is not None:
                outputs.setdefault(op.key, op.lineno)
        elif isinstance(op, (EnterOp, ExitOp)):
            for clause in op.clauses:
                kind = getattr(clause.kind, "value", None)
                if (clause.always and kind in _NON_TRANSFER
                        and always_line is None and op.lineno):
                    always_line = op.lineno
    return alloc, globals_, outputs, always_line


def backfill_sources(findings: List[Finding], ir: WorkloadIR) -> int:
    """Fill ``source`` on unlocated findings; returns how many resolved."""
    rel = _relative_source(ir.source_file)
    if not rel:
        return 0
    alloc, globals_, outputs, always_line = _index(ir)
    n = 0
    for f in findings:
        if f.source is not None:
            continue
        line: Optional[int] = None
        if f.buffer and f.buffer in alloc:
            line = alloc[f.buffer]
        elif f.buffer and f.buffer in globals_:
            line = globals_[f.buffer]
        elif f.output_keys:
            line = next((outputs[k] for k in f.output_keys
                         if k in outputs), None)
        elif not f.buffer and always_line is not None:
            line = always_line
        if line:
            f.source = (rel, line)
            n += 1
    return n
