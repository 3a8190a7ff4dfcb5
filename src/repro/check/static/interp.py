"""Abstract interpretation of the map-operation IR.

State = (present-table abstraction, in-flight nowait handles).  The
present table maps each allocation site to a :mod:`~.domains` refcount
lattice point; the interpreter pushes *sets* of states through the CFG
with a worklist (path-sensitivity: a branch forks the state, a join
keeps both), so "definitely absent on some path" and "present on every
path" are both directly observable.

Update discipline:

* **strong** operations (operand resolves to exactly one site) apply the
  precise transfer function and may report;
* **weak** operations (may-sets, summarized clauses) *join* the old and
  new lattice points and never report — the extractor's imprecision can
  hide a defect but cannot invent one;
* **unknown** operands (opaque expressions) poison conservatively: an
  unknown exit weakens every present site, so a later leak verdict
  ("mapped on every path") can never be manufactured by ignorance.

``target`` regions are atomic: the implicit enter/exit bracket is
net-zero on every refcount (a ``delete`` clause still forces zero), so
only ``nowait`` regions — whose exit half is deferred to ``wait`` —
leave state behind, tracked in the in-flight set for MC-S11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ...omp.mapping import MapKind
from .cfg import build_cfg
from .domains import BOT, POS, TOP, ZERO, Refcount
from .ir import (
    AbstractBuffer,
    AllocOp,
    ClauseIR,
    EnterOp,
    ExitOp,
    FreeOp,
    TargetOp,
    ThreadProgram,
    WaitOp,
    WorkloadIR,
    walk,
)

__all__ = ["analyze_ir", "ThreadSummary", "InterpResult", "Defect"]

#: per-block state-set explosion guard: past this many distinct states the
#: block's states are joined into one (soundness: join only loses precision)
_STATE_CAP = 256

#: per-thread processed-state budget (worklist hard stop; generous — the
#: bundled workloads need < 2k)
_WORK_CAP = 200_000

State = Tuple[Tuple[Tuple[AbstractBuffer, int], ...], FrozenSet[int]]


def _heap_of(state: State) -> Dict[AbstractBuffer, Refcount]:
    return {site: Refcount(code) for site, code in state[0]}


def _freeze(heap: Dict[AbstractBuffer, Refcount],
            inflight: FrozenSet[int]) -> State:
    items = tuple(sorted(
        ((site, rc.code) for site, rc in heap.items() if not rc.is_bottom),
        key=lambda kv: kv[0].site,
    ))
    return items, inflight


@dataclass(frozen=True)
class Defect:
    """One raw interpreter observation, pre-rule-mapping."""

    kind: str                 #: "underflow" | "inflight" | "leak" | "uncovered"
    site: AbstractBuffer
    tid: int
    lineno: int
    op_id: int
    context: str = ""         #: e.g. the kernel or clause description


@dataclass
class ThreadSummary:
    tid: int
    defects: List[Defect] = field(default_factory=list)
    exit_states: List[State] = field(default_factory=list)
    #: sites this thread map-exits (strongly or weakly) — other threads'
    #: leak verdicts consult this
    exited_sites: Set[AbstractBuffer] = field(default_factory=set)
    #: sites referenced by this thread's nowait regions
    nowait_refs: Set[AbstractBuffer] = field(default_factory=set)
    states_explored: int = 0
    capped: bool = False


@dataclass
class InterpResult:
    ir: WorkloadIR
    threads: List[ThreadSummary] = field(default_factory=list)
    defects: List[Defect] = field(default_factory=list)

    @property
    def states_explored(self) -> int:
        return sum(t.states_explored for t in self.threads)


class _ThreadInterp:
    def __init__(self, program: ThreadProgram):
        self.program = program
        self.summary = ThreadSummary(tid=program.tid)
        #: must-analysis bookkeeping for MC-P10: executions vs bad executions
        self.touch_exec: Dict[Tuple[int, AbstractBuffer], int] = {}
        self.touch_bad: Dict[Tuple[int, AbstractBuffer], int] = {}
        self._touch_ctx: Dict[Tuple[int, AbstractBuffer], Tuple[int, str]] = {}
        self._reported: Set[Tuple[str, int, AbstractBuffer]] = set()

    # -- defect recording ----------------------------------------------
    def _defect(self, kind: str, site: AbstractBuffer, lineno: int,
                op_id: int, context: str = "") -> None:
        key = (kind, op_id, site)
        if key in self._reported:
            return
        self._reported.add(key)
        self.summary.defects.append(Defect(
            kind=kind, site=site, tid=self.program.tid,
            lineno=lineno, op_id=op_id, context=context,
        ))

    # -- clause transfer -----------------------------------------------
    def _weaken_all(self, heap: Dict[AbstractBuffer, Refcount]) -> None:
        """An unknown exit may have removed anything."""
        for site, rc in list(heap.items()):
            heap[site] = rc.join(rc.exit())

    def _apply_enter(self, heap, clause: ClauseIR) -> None:
        if clause.buf.unknown:
            return  # entering an unknown buffer adds no obligations
        if clause.buf.strong:
            site = clause.buf.only
            heap[site] = heap.get(site, BOT).enter()
            return
        for site in clause.buf.sites:
            rc = heap.get(site, BOT)
            joined = rc.join(rc.enter())
            heap[site] = POS if rc.is_bottom else joined

    def _apply_exit(self, heap, clause: ClauseIR, op, *,
                    report: bool = True) -> None:
        delete = clause.kind is MapKind.DELETE
        if clause.buf.unknown:
            self._weaken_all(heap)
            return
        if clause.buf.strong:
            site = clause.buf.only
            rc = heap.get(site, BOT)
            if rc.definitely_absent and report:
                self._defect(
                    "underflow", site, op.lineno, op.op_id,
                    context=f"map({(clause.kind or MapKind.TOFROM).value}:)",
                )
            # bottom = a buffer this thread never saw (cross-thread)
            heap[site] = TOP if rc.is_bottom else rc.exit(delete=delete)
            return
        for site in clause.buf.sites:
            rc = heap.get(site, BOT)
            heap[site] = (TOP if rc.is_bottom
                          else rc.join(rc.exit(delete=delete)))

    # -- op transfer ----------------------------------------------------
    def _transfer(self, heap: Dict[AbstractBuffer, Refcount],
                  inflight: FrozenSet[int], op) -> FrozenSet[int]:
        program = self.program
        if isinstance(op, AllocOp):
            heap[op.buf] = ZERO
            return inflight
        if isinstance(op, FreeOp):
            return inflight  # the present table does not change on free
        if isinstance(op, EnterOp):
            for clause in op.clauses:
                self._apply_enter(heap, clause)
            return inflight
        if isinstance(op, ExitOp):
            for clause in op.clauses:
                self._check_inflight(heap, inflight, clause, op)
                self._apply_exit(heap, clause, op)
            return inflight
        if isinstance(op, TargetOp):
            self._check_touches(heap, op)
            if op.nowait and op.handle_id is not None:
                for clause in op.clauses:
                    self._apply_enter(heap, clause)
                return inflight | {op.handle_id}
            # synchronous region: net-zero bracket; only delete clauses
            # leave a mark
            for clause in op.clauses:
                if clause.kind is MapKind.DELETE:
                    if clause.buf.strong:
                        heap[clause.buf.only] = ZERO
                    else:
                        for site in clause.buf.sites:
                            rc = heap.get(site, BOT)
                            heap[site] = rc.join(ZERO)
            return inflight
        if isinstance(op, WaitOp):
            done = op.retires(inflight)
            for hid in sorted(done):
                clauses, _refs = program.handles.get(hid, ((), frozenset()))
                for clause in clauses:
                    self._apply_exit(heap, clause, op, report=False)
            return inflight - done
        # Update/GlobalSync/HostWrite/Output: no present-table effect
        return inflight

    def _check_inflight(self, heap, inflight: FrozenSet[int],
                        clause: ClauseIR, op) -> None:
        """MC-S11 (same thread): exiting a buffer a nowait region holds."""
        if not clause.buf.strong:
            return
        site = clause.buf.only
        for hid in inflight:
            _clauses, refs = self.program.handles.get(hid, ((), frozenset()))
            if site in refs:
                self._defect(
                    "inflight", site, op.lineno, op.op_id,
                    context="a nowait target region of this thread is "
                    "still in flight",
                )

    def _check_touches(self, heap, op: TargetOp) -> None:
        """MC-P10 bookkeeping: a touch is uncovered in this state when the
        buffer is definitely absent and no clause of the region maps it."""
        clause_sites = frozenset(
            s for c in op.clauses for s in c.buf.sites
        )
        for touch in op.touches:
            if not touch.strong:
                continue  # weak touch: never report
            site = touch.only
            key = (op.op_id, site)
            self.touch_exec[key] = self.touch_exec.get(key, 0) + 1
            self._touch_ctx[key] = (op.lineno, op.kernel)
            if site in clause_sites:
                continue
            rc = heap.get(site, BOT)
            if rc.definitely_absent:
                self.touch_bad[key] = self.touch_bad.get(key, 0) + 1

    # -- worklist --------------------------------------------------------
    def run(self) -> ThreadSummary:
        cfg = build_cfg(self.program)
        seen: Dict[int, Set[State]] = {b.bid: set() for b in cfg.blocks}
        capped: Set[int] = set()
        init: State = ((), frozenset())
        work: List[Tuple[int, State]] = [(cfg.entry.bid, init)]
        seen[cfg.entry.bid].add(init)
        blocks = {b.bid: b for b in cfg.blocks}
        explored = 0
        while work:
            bid, state = work.pop()
            explored += 1
            if explored > _WORK_CAP:  # pragma: no cover - backstop
                self.summary.capped = True
                break
            block = blocks[bid]
            heap = _heap_of(state)
            inflight = state[1]
            for op in block.ops:
                inflight = self._transfer(heap, inflight, op)
            out = _freeze(heap, inflight)
            if block is cfg.exit or not block.succs:
                if block is cfg.exit and out not in self.summary.exit_states:
                    self.summary.exit_states.append(out)
                continue
            for succ in block.succs:
                bucket = seen[succ.bid]
                if out in bucket:
                    continue
                if len(bucket) >= _STATE_CAP and succ.bid not in capped:
                    # join everything seen so far into one summary state
                    capped.add(succ.bid)
                    self.summary.capped = True
                    joined = self._join_states(bucket | {out})
                    bucket.clear()
                    bucket.add(joined)
                    work.append((succ.bid, joined))
                    continue
                if succ.bid in capped:
                    (summary_state,) = tuple(bucket) or (out,)
                    joined = self._join_states({summary_state, out})
                    if joined not in bucket:
                        bucket.clear()
                        bucket.add(joined)
                        work.append((succ.bid, joined))
                    continue
                bucket.add(out)
                work.append((succ.bid, out))
        self.summary.states_explored = explored
        self._collect_sets()
        return self.summary

    @staticmethod
    def _join_states(states: Set[State]) -> State:
        heaps = [dict(items) for items, _ in states]
        sites = set()
        for h in heaps:
            sites.update(h)
        joined: Dict[AbstractBuffer, Refcount] = {}
        for site in sites:
            rc = BOT
            for h in heaps:
                rc = rc.join(Refcount(h.get(site, BOT.code)))
            joined[site] = rc
        inflight = frozenset().union(*(inf for _, inf in states))
        return _freeze(joined, inflight)

    def _collect_sets(self) -> None:
        """Record exited/nowait site sets for cross-thread passes."""
        for node in walk(self.program.body):
            if isinstance(node, ExitOp):
                for clause in node.clauses:
                    self.summary.exited_sites.update(clause.buf.sites)
        for _clauses, refs in self.program.handles.values():
            self.summary.nowait_refs.update(refs)

    def must_uncovered(self) -> List[Tuple[int, AbstractBuffer, int, str]]:
        """Touches uncovered on *every* execution: (op_id, site, lineno,
        kernel)."""
        out = []
        for key, execs in sorted(
            self.touch_exec.items(), key=lambda kv: (kv[0][0], kv[0][1].site)
        ):
            bad = self.touch_bad.get(key, 0)
            if execs > 0 and bad == execs:
                lineno, kernel = self._touch_ctx[key]
                out.append((key[0], key[1], lineno, kernel))
        return out


def analyze_ir(ir: WorkloadIR) -> InterpResult:
    """Interpret every thread of a workload IR and run the cross-thread
    passes; returns raw defects for :mod:`~.rules` to turn into findings."""
    result = InterpResult(ir=ir)
    interps: List[_ThreadInterp] = []
    for program in ir.threads:
        interp = _ThreadInterp(program)
        result.threads.append(interp.run())
        interps.append(interp)

    all_defects: List[Defect] = []
    for interp, summary in zip(interps, result.threads, strict=True):
        all_defects.extend(summary.defects)
        # MC-P10: must-uncovered touches
        for op_id, site, lineno, kernel in interp.must_uncovered():
            all_defects.append(Defect(
                kind="uncovered", site=site, tid=summary.tid,
                lineno=lineno, op_id=op_id, context=kernel,
            ))

    # cross-thread MC-S11: thread A exits a site thread B's nowait region
    # references (no clean workload uses nowait, so this coarse pass is
    # false-positive-free by construction on the bundled set)
    for summary in result.threads:
        others_nowait: Dict[AbstractBuffer, int] = {}
        for other in result.threads:
            if other.tid == summary.tid:
                continue
            for site in other.nowait_refs:
                others_nowait.setdefault(site, other.tid)
        if not others_nowait:
            continue
        for defect in _cross_thread_exits(
            ir.thread(summary.tid), summary.tid, others_nowait
        ):
            all_defects.append(defect)

    # MC-S12: leak at thread end — present on every exit path, not
    # released by any other thread
    for summary in result.threads:
        if not summary.exit_states:
            continue
        exited_elsewhere: Set[AbstractBuffer] = set()
        for other in result.threads:
            if other.tid != summary.tid:
                exited_elsewhere.update(other.exited_sites)
        owned = set(ir.thread(summary.tid).buffers.values())
        candidates: Optional[Set[AbstractBuffer]] = None
        for state in summary.exit_states:
            heap = _heap_of(state)
            present = {
                site for site, rc in heap.items()
                if rc.definitely_present and site in owned
            }
            candidates = present if candidates is None else candidates & present
        for site in sorted(candidates or (), key=lambda s: s.site):
            if site in exited_elsewhere:
                continue
            all_defects.append(Defect(
                kind="leak", site=site, tid=summary.tid,
                lineno=site.lineno, op_id=0,
                context="still mapped on every path to the end of the "
                "thread body",
            ))

    result.defects = all_defects
    return result


def _cross_thread_exits(program: ThreadProgram, tid: int,
                        others_nowait: Dict[AbstractBuffer, int]) -> List[Defect]:
    defects: List[Defect] = []
    seen: Set[Tuple[int, AbstractBuffer]] = set()
    for op in walk(program.body):
        if not isinstance(op, ExitOp):
            continue
        for clause in op.clauses:
            if not clause.buf.strong:
                continue
            site = clause.buf.only
            if site in others_nowait and (op.op_id, site) not in seen:
                seen.add((op.op_id, site))
                defects.append(Defect(
                    kind="inflight", site=site, tid=tid,
                    lineno=op.lineno, op_id=op.op_id,
                    context=f"a nowait target region of thread "
                    f"{others_nowait[site]} may still be in flight",
                ))
    return defects
