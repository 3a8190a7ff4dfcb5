"""May-happen-in-parallel dataflow over the per-thread CFGs.

One forward fixpoint per thread over the CFG :func:`~..cfg.build_cfg`
produces, computing at every block entry a single joined sync state:

* the barrier **phase interval** (how many ``GlobalSyncOp`` barriers
  this thread has passed — widened to unbounded when a barrier sits in
  a loop),
* the **may-set of in-flight nowait handles** (union at joins; a wait
  subtracts what :meth:`~..ir.WaitOp.retires` says, the rule the
  abstract interpreter applies too),
* the **must-set of completed handles** (intersection at joins) — the
  wait edges that suppress cross-thread pairs.

A second pass over the stabilized states collects the
:class:`~.model.Access` and :class:`~.model.KernelFlight` records the
rules intersect.  Joining only widens phase intervals and in-flight
sets, so imprecision can add MHP *candidate* pairs but never remove a
wait edge that does not exist — and candidate pairs still need a
conflicting access on a shared allocation site to become findings.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..cfg import build_cfg
from ..ir import (
    EnterOp,
    ExitOp,
    GlobalSyncOp,
    HostWriteOp,
    OutputOp,
    TargetOp,
    ThreadProgram,
    WaitOp,
)
from .model import Access, KernelFlight, PhaseInterval, ThreadAccesses

__all__ = ["analyze_thread", "mhp"]

#: joins a block tolerates before its phase upper bound is widened to
#: unbounded (a barrier inside a loop would otherwise grow hi forever)
_WIDEN_AFTER = 4

#: (phase, inflight-may, completed-must)
_State = Tuple[PhaseInterval, FrozenSet[int], FrozenSet[int]]


def _join(a: _State, b: _State) -> _State:
    return (a[0].join(b[0]), a[1] | b[1], a[2] & b[2])


def _transfer(state: _State, op) -> _State:
    phase, inflight, completed = state
    if isinstance(op, GlobalSyncOp):
        return phase.bump(), inflight, completed
    if isinstance(op, TargetOp) and op.nowait and op.handle_id is not None:
        return phase, inflight | {op.handle_id}, completed
    if isinstance(op, WaitOp):
        done = op.retires(inflight)
        named = done if op.unknown else frozenset(op.handle_ids)
        return phase, inflight - done, completed | named
    return state


class _ThreadMHP:
    def __init__(self, program: ThreadProgram):
        self.program = program
        self.cfg = build_cfg(program)

    # -- fixpoint over block-entry states --------------------------------
    def _fixpoint(self) -> Dict[int, _State]:
        entry: Dict[int, _State] = {}
        updates: Dict[int, int] = {}
        init: _State = (PhaseInterval(), frozenset(), frozenset())
        blocks = {b.bid: b for b in self.cfg.blocks}
        entry[self.cfg.entry.bid] = init
        work: List[int] = [self.cfg.entry.bid]
        self._explored = 0
        while work:
            bid = work.pop()
            self._explored += 1
            state = entry[bid]
            for op in blocks[bid].ops:
                state = _transfer(state, op)
            for succ in blocks[bid].succs:
                old = entry.get(succ.bid)
                new = state if old is None else _join(old, state)
                if old is not None:
                    updates[succ.bid] = updates.get(succ.bid, 0) + 1
                    if updates[succ.bid] > _WIDEN_AFTER:
                        new = (new[0].widen(), new[1], new[2])
                if new != old:
                    entry[succ.bid] = new
                    work.append(succ.bid)
        return entry

    # -- collection over the stabilized states ---------------------------
    def run(self) -> ThreadAccesses:
        entry = self._fixpoint()
        out = ThreadAccesses(tid=self.program.tid,
                             states_explored=self._explored)
        launches: List[Tuple[TargetOp, PhaseInterval]] = []
        waits: Dict[int, PhaseInterval] = {}
        for block in self.cfg.blocks:
            if block.bid not in entry:
                continue  # unreachable (e.g. code after a return)
            state = entry[block.bid]
            for op in block.ops:
                self._collect(op, state, out, launches, waits)
                state = _transfer(state, op)
        end_phase = entry.get(self.cfg.exit.bid,
                              (PhaseInterval().widen(),))[0]
        for op, launch in launches:
            out.flights.append(self._flight(op, launch, waits, end_phase))
        return out

    def _collect(self, op, state: _State, out: ThreadAccesses,
                 launches, waits: Dict[int, PhaseInterval]) -> None:
        phase, inflight, completed = state
        tid = self.program.tid

        def access(kind: str, ref, context: str = "") -> None:
            if ref is None or not ref.strong:
                return  # weak/unknown operand: never report through it
            out.accesses.append(Access(
                kind=kind, ref=ref, tid=tid, lineno=op.lineno,
                op_id=op.op_id, phase=phase, inflight=inflight,
                completed=completed, context=context,
            ))

        if isinstance(op, EnterOp):
            for clause in op.clauses:
                access("map_enter", clause.buf)
        elif isinstance(op, ExitOp):
            for clause in op.clauses:
                access("map_exit", clause.buf)
        elif isinstance(op, HostWriteOp):
            access("host_write", op.buf)
        elif isinstance(op, OutputOp):
            for ref in op.bufs:
                access("output_read", ref, context=op.key or "")
        elif isinstance(op, TargetOp):
            launches.append((op, phase))
        elif isinstance(op, WaitOp):
            for hid in op.retires(inflight):
                waits[hid] = waits[hid].join(phase) if hid in waits else phase

    def _flight(self, op: TargetOp, launch: PhaseInterval,
                waits: Dict[int, PhaseInterval],
                end_phase: PhaseInterval) -> KernelFlight:
        reads = tuple(c.buf for c in op.clauses) + tuple(op.touches)
        writes = tuple(
            c.buf for c in op.clauses
            if c.kind is not None and c.kind.copies_to_host
        ) + tuple(op.touches)
        if op.nowait and op.handle_id is not None:
            end = waits.get(op.handle_id, end_phase)
            span = launch.join(end)
        else:
            span = launch  # synchronous: flight contained at the op
        return KernelFlight(
            kernel=op.kernel, tid=self.program.tid, lineno=op.lineno,
            op_id=op.op_id, launch=launch, span=span,
            reads=reads, writes=writes,
            handle_id=op.handle_id if op.nowait else None,
            nowait=op.nowait,
        )


def analyze_thread(program: ThreadProgram) -> ThreadAccesses:
    """Run the MHP dataflow over one thread and collect its accesses."""
    return _ThreadMHP(program).run()


def mhp(a_phase: PhaseInterval, b_phase: PhaseInterval) -> bool:
    """Cross-thread may-happen-in-parallel: barrier phases overlap.

    The k-th ``GlobalSyncOp`` of every thread is modeled as one aligned
    barrier, so disjoint phase intervals are ordered by a barrier
    crossing and cannot race; anything else may interleave.
    """
    return a_phase.overlaps(b_phase)
