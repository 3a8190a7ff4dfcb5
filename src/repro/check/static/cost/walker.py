"""The MapCost abstract interpreter: per-config cost state over the IR.

Walks the *structured* IR (not the CFG): sequences compose, branches
fork-and-join, and loops are handled symbolically — a loop whose trip
count folded against the workload instance (``Loop.trips``) is iterated
with steady-state detection (once the non-counter state repeats, the
last iteration's counter delta is multiplied by the remaining trips,
which is exact), while unresolved loops fall back to a join-fixpoint
with the touched counters widened to ``[lo, inf)``.

State tracked per allocation site: the present-table refcount interval,
and a 0/1 "GPU translation installed" interval (faults, prefaults and
``mmu_unmap`` shootdowns all operate on whole page-aligned buffers, so
a boolean per site is exact).  Copy-mode additionally tracks the
MemoryManager's per-size-class free-list depths, because whether a
device allocation reaches HSA depends on them.

Ambiguity is handled by *case splitting*: an enter of a buffer whose
refcount interval straddles zero is evaluated once as "new" and once as
"present" on cloned states and the results joined — sound, and exact
whenever the refcount itself is exact.  ``target`` brackets enumerate
joint site assignments for multi-site operands (capped), so the
enter/exit halves of one bracket always agree on which buffer they
touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Tuple

from ....core.config import RuntimeConfig
from ....omp.mapping import MapKind
from ..ir import (
    AbstractBuffer,
    AllocOp,
    Branch,
    ClauseIR,
    EnterOp,
    ExitOp,
    FreeOp,
    GlobalSyncOp,
    Loop,
    ReturnNode,
    Seq,
    TargetOp,
    ThreadProgram,
    UpdateOp,
    WaitOp,
    WorkloadIR,
)
from .intervals import ONE, ZERO, Interval
from .model import (
    ALL_KEYS,
    ASYNC_COPY,
    ASYNC_HANDLER,
    MEMORY_COPY,
    POOL_ALLOC,
    POOL_FREE,
    SCACQUIRE,
    SVM_SET,
    MEMMGR_THRESHOLD,
    device_init_counts,
    pages_of,
    size_class,
)

__all__ = ["CostPrediction", "CostState", "predict_costs"]

#: joint site assignments enumerated per target bracket before widening
_ASSIGN_CAP = 64
#: symbolic-loop iteration budget before giving up on steady state
_ITER_CAP = 2048
#: join-fixpoint rounds for unresolved loops
_FIX_CAP = 64

#: transient counter key carrying "h2d signals produced by the current
#: enter bracket"; consumed (and removed) by the barrier that follows
_SIGS = "__h2d_sigs__"

_EXIT_ONLY = (MapKind.RELEASE, MapKind.DELETE)


def _norm(d: Dict) -> Tuple:
    return tuple(sorted((k, v) for k, v in d.items() if not v.is_zero))


def _join_dicts(a: Dict, b: Dict) -> Dict:
    out = {}
    for k in set(a) | set(b):
        iv = a.get(k, ZERO).join(b.get(k, ZERO))
        if not iv.is_zero:
            out[k] = iv
    return out


class CostState:
    """One abstract cost state (mutable; cloned at forks)."""

    __slots__ = ("counters", "rc", "trans", "gtrans", "buckets", "inflight", "dead")

    def __init__(self):
        self.counters: Dict[str, Interval] = {}
        self.rc: Dict[str, Interval] = {}        #: site -> refcount
        self.trans: Dict[str, Interval] = {}     #: site -> GPU translation (0/1)
        self.gtrans: Dict[str, Interval] = {}    #: global -> GPU translation (0/1)
        self.buckets: Dict[int, Interval] = {}   #: memmgr size class -> free blocks
        self.inflight: Dict[int, Interval] = {}  #: nowait handle -> launched (0/1)
        self.dead = False

    def clone(self) -> "CostState":
        out = CostState()
        out.counters = dict(self.counters)
        out.rc = dict(self.rc)
        out.trans = dict(self.trans)
        out.gtrans = dict(self.gtrans)
        out.buckets = dict(self.buckets)
        out.inflight = dict(self.inflight)
        out.dead = self.dead
        return out

    def bump(self, key: str, iv: Interval) -> None:
        if not iv.is_zero:
            self.counters[key] = self.counters.get(key, ZERO).add(iv)

    def join(self, other: "CostState") -> "CostState":
        out = CostState()
        out.counters = _join_dicts(self.counters, other.counters)
        out.rc = _join_dicts(self.rc, other.rc)
        out.trans = _join_dicts(self.trans, other.trans)
        out.gtrans = _join_dicts(self.gtrans, other.gtrans)
        out.buckets = _join_dicts(self.buckets, other.buckets)
        out.inflight = _join_dicts(self.inflight, other.inflight)
        out.dead = self.dead and other.dead
        return out

    def snapshot(self) -> Tuple:
        """Normalized non-counter state (steady-state detection key)."""
        return (
            _norm(self.rc),
            _norm(self.trans),
            _norm(self.gtrans),
            _norm(self.buckets),
            _norm(self.inflight),
        )

    def equals(self, other: "CostState") -> bool:
        return (
            self.snapshot() == other.snapshot()
            and _norm(self.counters) == _norm(other.counters)
        )


def _join_all(states: List[CostState]) -> CostState:
    out = states[0]
    for s in states[1:]:
        out = out.join(s)
    return out


@dataclass
class CostPrediction:
    """Predicted per-config cost intervals for one workload."""

    name: str
    config: object                       #: RuntimeConfig
    counters: Dict[str, Interval] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def interval(self, key: str) -> Interval:
        return self.counters.get(key, ZERO)

    @property
    def exact(self) -> bool:
        from .model import EXACT_KEYS

        return all(self.interval(k).is_exact for k in EXACT_KEYS)

    def to_dict(self) -> dict:
        return {
            "workload": self.name,
            "config": self.config.value,
            "counters": {
                k: [v.lo, v.hi] for k, v in sorted(self.counters.items())
            },
            "notes": list(self.notes),
        }


class _Walker:
    def __init__(self, ir: WorkloadIR, config: RuntimeConfig):
        self.ir = ir
        self.config = config
        self.notes: List[str] = []
        self._noted = set()
        #: canonical site registry (the extractor may refine a site's
        #: folded size after refs to it were built)
        self.sites: Dict[str, AbstractBuffer] = {}
        for th in ir.threads:
            self.sites.update(th.buffers)
        self.program: Optional[ThreadProgram] = None
        self.exit_states: List[CostState] = []

    def note(self, msg: str) -> None:
        if msg not in self._noted:
            self._noted.add(msg)
            self.notes.append(msg)

    # -- subclass hooks ----------------------------------------------------
    def _fault_bump(
        self,
        state: CostState,
        iv: Interval,
        site: Optional[AbstractBuffer] = None,
        global_name: Optional[str] = None,
    ) -> None:
        """Every pages-faulted contribution flows through here.  The
        MapPlace walker overrides it to also split the faulted pages into
        the remote-link share a placement policy implies; ``site`` /
        ``global_name`` identify the faulting storage when resolved."""
        state.bump("pages_faulted", iv)

    def _on_kernel(
        self,
        state: CostState,
        op: TargetOp,
        sitemap: Dict[int, Optional[AbstractBuffer]],
    ) -> None:
        """Called once per kernel-launch bracket, after the fault pass.
        The MapPlace walker overrides it to count the local/remote pages
        the launch's map clauses visit."""

    # -- size resolution ---------------------------------------------------
    def _site_nbytes(self, site: AbstractBuffer) -> Optional[int]:
        canonical = self.sites.get(site.site, site)
        return canonical.nbytes

    def _bytes_iv(self, nbytes: Optional[int]) -> Interval:
        if nbytes is None:
            self.note("unresolved buffer size; byte totals widened")
            return Interval(0, None)
        return Interval.exact(nbytes)

    def _pages_iv(self, nbytes: Optional[int], trans: Interval) -> Interval:
        """Pages newly installed when translating a buffer whose current
        translation state is ``trans`` (0/1 interval)."""
        if nbytes is None:
            self.note("unresolved buffer size; page totals widened")
            return ZERO if trans.lo >= 1 else Interval(0, None)
        pages = pages_of(nbytes)
        if trans.lo >= 1:
            return ZERO
        if trans.hi == 0:
            return Interval.exact(pages)
        return Interval(0, pages)

    # -- structured walk ---------------------------------------------------
    def walk_seq(self, seq: Seq, state: CostState) -> CostState:
        for item in seq.items:
            if state.dead:
                break
            state = self.walk_node(item, state)
        return state

    def walk_node(self, node, state: CostState) -> CostState:
        if isinstance(node, Seq):
            return self.walk_seq(node, state)
        if isinstance(node, Branch):
            s1 = self.walk_seq(node.then, state.clone())
            s2 = self.walk_seq(node.orelse, state)
            if s1.dead:
                return s2
            if s2.dead:
                return s1
            return s1.join(s2)
        if isinstance(node, Loop):
            return self.walk_loop(node, state)
        if isinstance(node, ReturnNode):
            self.exit_states.append(state.clone())
            state.dead = True
            return state
        return self.walk_op(node, state)

    # -- loops -------------------------------------------------------------
    def walk_loop(self, loop: Loop, state: CostState) -> CostState:
        if loop.trips is not None:
            return self._counted_loop(loop, state, loop.trips)
        probe = self.walk_seq(loop.body, state.clone())
        if not probe.dead and probe.equals(state):
            # cost-free loop (e.g. a pure wait): exact no-op
            return state
        base = state if loop.min_trips == 0 else probe
        self.note(
            f"L{loop.lineno}: {loop.kind} loop with unresolved trip count; "
            "cost widened"
        )
        return self._widen_loop(loop, base)

    def _widen_loop(self, loop: Loop, base: CostState) -> CostState:
        """Join-fixpoint on non-counter state; touched counters go to
        ``[lo, inf)`` with ``lo`` the guaranteed-minimum total."""
        cur = base.clone()
        cur.dead = False
        for _ in range(_FIX_CAP):
            nxt = self.walk_seq(loop.body, cur.clone())
            merged = cur.join(nxt)
            if merged.snapshot() == cur.snapshot():
                cur = merged
                break
            cur = merged
        for k in set(cur.counters) | set(base.counters):
            bv = base.counters.get(k, ZERO)
            cv = cur.counters.get(k, ZERO)
            cur.counters[k] = bv if cv == bv else bv.widen_hi()
        cur.counters.pop(_SIGS, None)
        return cur

    def _counted_loop(self, loop: Loop, state: CostState, trips: int) -> CostState:
        if trips <= 0:
            return state
        prev_snap = state.snapshot()
        prev_counters = dict(state.counters)
        done = 0
        while done < trips:
            if done >= _ITER_CAP:
                self.note(
                    f"L{loop.lineno}: no steady state within {_ITER_CAP} "
                    "iterations; widening remainder"
                )
                return self._widen_loop(loop, state)
            state = self.walk_seq(loop.body, state)
            if state.dead:
                return state
            done += 1
            snap = state.snapshot()
            if snap == prev_snap:
                remaining = trips - done
                if remaining:
                    for k in set(state.counters) | set(prev_counters):
                        delta = self._delta(
                            state.counters.get(k, ZERO), prev_counters.get(k, ZERO)
                        )
                        if not delta.is_zero:
                            state.counters[k] = state.counters.get(k, ZERO).add(
                                delta.scale(remaining)
                            )
                return state
            prev_snap = snap
            prev_counters = dict(state.counters)
        return state

    @staticmethod
    def _delta(cur: Interval, prev: Interval) -> Interval:
        lo = max(cur.lo - prev.lo, 0)
        hi = None
        if cur.hi is not None and prev.hi is not None:
            hi = max(cur.hi - prev.hi, lo)
        return Interval(lo, hi)

    # -- ops ----------------------------------------------------------------
    def walk_op(self, op, state: CostState) -> CostState:
        if isinstance(op, AllocOp):
            if op.buf is not None:
                state.rc.pop(op.buf.site, None)     # fresh VA: definitely absent
                state.trans.pop(op.buf.site, None)  # no GPU translation yet
            return state
        if isinstance(op, FreeOp):
            return self._free(op, state)
        if isinstance(op, EnterOp):
            for clause in op.clauses:
                state = self._enter_clause(state, clause, None)
            return self._barrier(state)
        if isinstance(op, ExitOp):
            for clause in op.clauses:
                state = self._exit_clause(state, clause, None)
            return state
        if isinstance(op, TargetOp):
            return self._target(op, state)
        if isinstance(op, WaitOp):
            return self._wait(op, state)
        if isinstance(op, UpdateOp):
            return self._update(op, state)
        if isinstance(op, GlobalSyncOp):
            return self._global_sync(op, state)
        # HostWriteOp / OutputOp: no storage effect
        return state

    # -- host memory ---------------------------------------------------------
    def _free(self, op: FreeOp, state: CostState) -> CostState:
        ref = op.buf
        if ref is None or ref.unknown:
            # an unknown free may shoot down any translation
            for key, iv in list(state.trans.items()):
                state.trans[key] = iv.join(ZERO)
            return state
        if ref.strong:
            state.trans.pop(ref.only.site, None)  # mmu_unmap shootdown
            return state
        for site in ref.sites:
            key = site.site
            state.trans[key] = state.trans.get(key, ZERO).join(ZERO)
        return state

    # -- map enter -----------------------------------------------------------
    def _widen_map_ops(self, state: CostState, enter: bool, why: str) -> None:
        self.note(f"{why}; map-op counts widened")
        inf = Interval(0, None)
        state.bump("map_enters" if enter else "map_exits", inf)
        if not self.config.is_zero_copy:
            for k in (POOL_ALLOC, POOL_FREE, ASYNC_COPY, ASYNC_HANDLER,
                      SCACQUIRE, "h2d_bytes", "d2h_bytes"):
                state.bump(k, inf)
        if self.config is RuntimeConfig.EAGER_MAPS and enter:
            state.bump(SVM_SET, inf)
            state.bump("pages_prefaulted", inf)

    def _enter_clause(
        self, state: CostState, clause: ClauseIR, site: Optional[AbstractBuffer]
    ) -> CostState:
        if clause.kind in _EXIT_ONLY:
            self.note("exit-only map kind on an enter path (see MC-S04)")
            return state
        if clause.buf.unknown or clause.buf.weak or clause.kind is None:
            self._widen_map_ops(state, True, "unresolved map-enter operand")
            return state
        sites = [site] if site is not None else sorted(
            clause.buf.sites, key=lambda b: b.site
        )
        if len(sites) > 1:
            return _join_all(
                [self._enter_at(state.clone(), clause, s) for s in sites]
            )
        return self._enter_at(state, clause, sites[0])

    def _enter_at(
        self, state: CostState, clause: ClauseIR, site: AbstractBuffer
    ) -> CostState:
        key = site.site
        nbytes = self._site_nbytes(site)
        state.bump("map_enters", ONE)
        rc = state.rc.get(key, ZERO)
        cases: List[CostState] = []
        if rc.lo == 0:  # may be absent: fresh mapping
            s = state.clone()
            s.rc[key] = ONE
            s = self._device_alloc(s, nbytes)
            if not self.config.is_zero_copy and clause.kind.copies_to_device:
                self._h2d_async(s, nbytes)
            self._prefault(s, key, nbytes)
            cases.append(s)
        if rc.hi is None or rc.hi > 0:  # may be present: refcount bump
            s = state.clone()
            pre = Interval(max(rc.lo, 1), rc.hi)
            s.rc[key] = pre.add(ONE)
            if not self.config.is_zero_copy and clause.kind.copies_to_device and clause.always:
                self._h2d_async(s, nbytes)
            self._prefault(s, key, nbytes)
            cases.append(s)
        return _join_all(cases)

    def _device_alloc(self, state: CostState, nbytes: Optional[int]) -> CostState:
        if self.config.is_zero_copy:
            return state
        if nbytes is None:
            self.note("unresolved allocation size; pool traffic widened")
            state.bump(POOL_ALLOC, Interval(0, None))
            return state
        if nbytes > MEMMGR_THRESHOLD:
            state.bump(POOL_ALLOC, ONE)
            return state
        bucket = size_class(nbytes)
        cnt = state.buckets.get(bucket, ZERO)
        cases: List[CostState] = []
        if cnt.hi is None or cnt.hi > 0:  # free block available: cache hit
            s = state.clone()
            pre = Interval(max(cnt.lo, 1), cnt.hi)
            s.buckets[bucket] = pre.sub1_clamped()
            cases.append(s)
        if cnt.lo == 0:  # cache miss: traced pool allocation of the bucket
            s = state.clone()
            s.bump(POOL_ALLOC, ONE)
            cases.append(s)
        return _join_all(cases)

    def _device_free(self, state: CostState, nbytes: Optional[int]) -> None:
        if self.config.is_zero_copy:
            return
        if nbytes is None:
            self.note("unresolved allocation size; pool traffic widened")
            state.bump(POOL_FREE, Interval(0, None))
            return
        if nbytes > MEMMGR_THRESHOLD:
            state.bump(POOL_FREE, ONE)
            return
        bucket = size_class(nbytes)
        state.buckets[bucket] = state.buckets.get(bucket, ZERO).add(ONE)

    def _h2d_async(self, state: CostState, nbytes: Optional[int]) -> None:
        """Async H2D copy completed by handler; barrier waits on _SIGS."""
        state.bump(ASYNC_COPY, ONE)
        state.bump(ASYNC_HANDLER, ONE)
        state.bump("h2d_bytes", self._bytes_iv(nbytes))
        state.bump(_SIGS, ONE)

    def _d2h_sync(self, state: CostState, nbytes: Optional[int]) -> None:
        """Synchronous D2H copy: immediate per-clause scacquire wait."""
        state.bump(ASYNC_COPY, ONE)
        state.bump(SCACQUIRE, ONE)
        state.bump("d2h_bytes", self._bytes_iv(nbytes))

    def _prefault(self, state: CostState, key: str, nbytes: Optional[int]) -> None:
        if self.config is not RuntimeConfig.EAGER_MAPS:
            return
        state.bump(SVM_SET, ONE)
        trans = state.trans.get(key, ZERO)
        state.bump("pages_prefaulted", self._pages_iv(nbytes, trans))
        state.trans[key] = ONE

    def _barrier(self, state: CostState) -> CostState:
        """One scacquire over the bracket's async H2D signals, if any."""
        sigs = state.counters.pop(_SIGS, ZERO)
        lo = 1 if sigs.lo > 0 else 0
        hi = 0 if sigs.hi == 0 else 1
        state.bump(SCACQUIRE, Interval(lo, hi))
        return state

    # -- map exit ------------------------------------------------------------
    def _exit_clause(
        self, state: CostState, clause: ClauseIR, site: Optional[AbstractBuffer]
    ) -> CostState:
        if clause.buf.unknown or clause.buf.weak or clause.kind is None:
            self._widen_map_ops(state, False, "unresolved map-exit operand")
            return state
        sites = [site] if site is not None else sorted(
            clause.buf.sites, key=lambda b: b.site
        )
        if len(sites) > 1:
            return _join_all(
                [self._exit_at(state.clone(), clause, s) for s in sites]
            )
        return self._exit_at(state, clause, sites[0])

    def _exit_at(
        self, state: CostState, clause: ClauseIR, site: AbstractBuffer
    ) -> CostState:
        key = site.site
        nbytes = self._site_nbytes(site)
        state.bump("map_exits", ONE)
        rc = state.rc.get(key, ZERO)
        if rc.hi == 0:
            # the simulation would raise (MC-S01/S02 territory); cost-wise
            # the op never completes, so predict nothing past the bump
            self.note(f"map-exit of definitely-absent buffer {site.name!r}")
            return state
        pre = Interval(max(rc.lo, 1), rc.hi)
        delete = clause.kind is MapKind.DELETE
        copies_back = clause.kind.copies_to_host
        cases: List[CostState] = []
        if delete or pre.lo <= 1:  # may be the last reference
            s = state.clone()
            s.rc.pop(key, None)
            if not self.config.is_zero_copy and copies_back:
                self._d2h_sync(s, nbytes)
            self._device_free(s, nbytes)
            cases.append(s)
        if not delete and (pre.hi is None or pre.hi >= 2):  # may survive
            s = state.clone()
            post_lo = max(pre.lo, 2) - 1
            post_hi = None if pre.hi is None else pre.hi - 1
            s.rc[key] = Interval(post_lo, post_hi)
            if not self.config.is_zero_copy and copies_back and clause.always:
                self._d2h_sync(s, nbytes)
            cases.append(s)
        return _join_all(cases)

    # -- target regions --------------------------------------------------------
    def _target(self, op: TargetOp, state: CostState) -> CostState:
        multi = [
            i
            for i, c in enumerate(op.clauses)
            if not c.buf.unknown
            and not c.buf.weak
            and c.kind is not None
            and len(c.buf.sites) > 1
        ]
        n_assign = 1
        for i in multi:
            n_assign *= len(op.clauses[i].buf.sites)
        if n_assign > _ASSIGN_CAP:
            self.note(
                f"L{op.lineno}: {n_assign} joint site assignments exceed the "
                f"cap ({_ASSIGN_CAP}); bracket widened"
            )
            results = [self._target_once(state.clone(), op, dict.fromkeys(multi))]
        else:
            choices = [
                sorted(op.clauses[i].buf.sites, key=lambda b: b.site)
                for i in multi
            ]
            results = [
                self._target_once(
                    state.clone(), op, dict(zip(multi, assign, strict=True))
                )
                for assign in product(*choices)
            ]
        return _join_all(results)

    def _target_once(
        self,
        state: CostState,
        op: TargetOp,
        sitemap: Dict[int, Optional[AbstractBuffer]],
    ) -> CostState:
        # implicit map-enter half
        for i, clause in enumerate(op.clauses):
            if i in sitemap and sitemap[i] is None:
                self._widen_map_ops(state, True, "capped multi-site bracket")
                continue
            state = self._enter_clause(state, clause, sitemap.get(i))
        state = self._barrier(state)
        state = self._faults(state, op, sitemap)
        state.bump("kernels", ONE)
        self._on_kernel(state, op, sitemap)
        if op.nowait:
            if op.handle_id is None:
                self.note(f"L{op.lineno}: unresolved nowait handle; widening")
                state.bump(SCACQUIRE, Interval(0, None))
                state.bump("map_exits", Interval(0, None))
                return state
            state.inflight[op.handle_id] = ONE
            return state
        state.bump(SCACQUIRE, ONE)  # completion wait
        for i, clause in enumerate(op.clauses):
            if i in sitemap and sitemap[i] is None:
                self._widen_map_ops(state, False, "capped multi-site bracket")
                continue
            state = self._exit_clause(state, clause, sitemap.get(i))
        return state

    def _faults(
        self,
        state: CostState,
        op: TargetOp,
        sitemap: Dict[int, Optional[AbstractBuffer]],
    ) -> CostState:
        """First-touch XNACK servicing at kernel launch (USM / IZC)."""
        if not self.config.needs_xnack:
            return state
        seen = set()
        fault_sites: List[AbstractBuffer] = []
        for i, clause in enumerate(op.clauses):
            if clause.buf.unknown or clause.buf.weak:
                self.note("unresolved kernel operand; fault pages widened")
                self._fault_bump(state, Interval(0, None))
                continue
            site = sitemap.get(i)
            if site is None and len(clause.buf.sites) == 1:
                site = clause.buf.only
            if site is None:
                # capped multi-site operand: any of its sites may fault
                for s in clause.buf.sites:
                    nbytes = self._site_nbytes(s)
                    t = state.trans.get(s.site, ZERO)
                    iv = self._pages_iv(nbytes, t)
                    self._fault_bump(state, Interval(0, iv.hi), site=s)
                    state.trans[s.site] = t.join(ONE)
                continue
            if site.site not in seen:
                seen.add(site.site)
                fault_sites.append(site)
        for site in fault_sites:
            key = site.site
            nbytes = self._site_nbytes(site)
            self._fault_bump(
                state, self._pages_iv(nbytes, state.trans.get(key, ZERO)), site=site
            )
            state.trans[key] = ONE
        if self.config.globals_as_pointer:
            for name in op.globals_used:
                nbytes = self.ir.global_sizes.get(name)
                t = state.gtrans.get(name, ZERO)
                self._fault_bump(
                    state, self._pages_iv(nbytes, t), global_name=name
                )
                state.gtrans[name] = ONE
        clause_sites = {s.site for c in op.clauses for s in c.buf.sites}
        for touch in op.touches:
            if not touch.strong:
                self.note("unresolved raw-pointer touch; fault pages widened")
                self._fault_bump(state, Interval(0, None))
                continue
            site = touch.only
            if site.site in clause_sites:
                continue  # already in the kernel's fault ranges
            rc = state.rc.get(site.site, ZERO)
            if rc.lo >= 1:
                continue  # covered by the present table: not re-faulted
            nbytes = self._site_nbytes(site)
            t = state.trans.get(site.site, ZERO)
            iv = self._pages_iv(nbytes, t)
            if rc.hi == 0:  # definitely uncovered: faults for sure
                self._fault_bump(state, iv, site=site)
                state.trans[site.site] = ONE
            else:
                self._fault_bump(state, Interval(0, iv.hi), site=site)
                state.trans[site.site] = t.join(ONE)
        return state

    def _wait(self, op: WaitOp, state: CostState) -> CostState:
        if self.program is None:
            return state
        if op.unknown:
            candidates = sorted(state.inflight)
            self.note("wait on an unresolved handle; completing all in-flight")
        else:
            candidates = sorted(h for h in op.handle_ids if h in state.inflight)
        for hid in candidates:
            pres = state.inflight.pop(hid, ZERO)
            if pres.is_zero:
                continue
            clauses, _refs = self.program.handles.get(hid, ((), frozenset()))
            done = state.clone()
            done.bump(SCACQUIRE, ONE)
            for clause in clauses:
                done = self._exit_clause(done, clause, None)
            # pres.lo >= 1: definitely launched; else some paths only
            state = done if pres.lo >= 1 else state.join(done)
        return state

    # -- update / globals ------------------------------------------------------
    def _update(self, op: UpdateOp, state: CostState) -> CostState:
        if self.config.is_zero_copy:
            return state  # zero-copy: motion is pure bookkeeping
        for to_device, refs in ((True, op.to), (False, op.from_)):
            byte_key = "h2d_bytes" if to_device else "d2h_bytes"
            for ref in refs:
                if ref.unknown or ref.weak:
                    self.note("unresolved target-update operand; widened")
                    for k in (ASYNC_COPY, SCACQUIRE, byte_key):
                        state.bump(k, Interval(0, None))
                    continue
                variants = []
                for site in sorted(ref.sites, key=lambda b: b.site):
                    s = state.clone()
                    rc = s.rc.get(site.site, ZERO)
                    nbytes = self._site_nbytes(site)
                    moved_lo = 1 if rc.lo >= 1 else 0
                    moved_hi = 0 if rc.hi == 0 else 1
                    moved = Interval(moved_lo, moved_hi)
                    s.bump(ASYNC_COPY, moved)
                    s.bump(SCACQUIRE, moved)
                    bytes_iv = self._bytes_iv(nbytes)
                    s.bump(
                        byte_key,
                        Interval(
                            bytes_iv.lo * moved.lo,
                            None if bytes_iv.hi is None else bytes_iv.hi * moved.hi,
                        ),
                    )
                    variants.append(s)
                state = _join_all(variants)
        return state

    def _global_sync(self, op: GlobalSyncOp, state: CostState) -> CostState:
        nbytes = self.ir.global_sizes.get(op.name)
        if nbytes is None:
            self.note(f"unresolved size for global {op.name!r}; bytes widened")
        iv = Interval.exact(nbytes) if nbytes is not None else Interval(0, None)
        if self.config.globals_as_pointer:
            return state  # USM: the device pointer aliases the host global
        if not self.config.is_zero_copy:
            state.bump(ASYNC_COPY, ONE)
            state.bump(SCACQUIRE, ONE)
            state.bump("h2d_bytes", iv)
        else:
            state.bump(MEMORY_COPY, ONE)  # IZC/Eager shadow-copy refresh
            state.bump("shadow_bytes", iv)
        return state

    # -- entry point -------------------------------------------------------
    def run(self, include_init: bool = True) -> CostPrediction:
        state = CostState()
        if include_init:
            for key, count in device_init_counts(self.ir.n_threads).items():
                state.counters[key] = Interval.exact(count)
        if self.ir.n_threads > 1:
            self.note(
                "multi-threaded workload: threads are walked sequentially; "
                "interleaving-dependent counts are not modeled"
            )
        for program in self.ir.threads:
            self.program = program
            self.exit_states = []
            state = self.walk_seq(program.body, state)
            ends = list(self.exit_states)
            if not state.dead:
                ends.append(state)
            state = _join_all(ends) if ends else state
            state.dead = False
        counters = {
            k: v for k, v in state.counters.items() if k != _SIGS and not v.is_zero
        }
        for k in ALL_KEYS:
            counters.setdefault(k, ZERO)
        return CostPrediction(
            name=self.ir.name,
            config=self.config,
            counters=counters,
            notes=list(self.notes),
        )


def predict_costs(
    ir: WorkloadIR, config: RuntimeConfig, include_init: bool = True
) -> CostPrediction:
    """Predict per-config cost intervals for one extracted workload."""
    return _Walker(ir, config).run(include_init=include_init)
