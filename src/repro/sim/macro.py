"""MapWarp: steady-state macro-execution for periodic offload streams.

The paper's workloads are overwhelmingly periodic: QMCPack's steady state
is ~99.4 k near-identical kernel launches per thread, each wrapped in the
same ``always to``/``from`` map clauses, and the SPECaccel timed loops
repeat one per-thread map/kernel segment thousands of times.  The fused
engine (``ENGINE_VERSION 2``) already collapses back-to-back charges, but
every OpenMP operation still runs its full generator round-trip through
the scheduler — per-event Python dispatch dominates full-fidelity runs.

This module adds a third engine (``engine="macro"``): a segment-recording
layer fingerprints each host thread's operation stream, detects a stable
repeating segment (or takes declared periodicity from the MapCost IR's
``Loop(trips=N)`` nodes via :func:`declared_period`), and then
*macro-executes* matching iterations — the clock jump, the event
accounting, the present-table refcounts, the ledger/trace increments and
the kernel's functional payload are applied directly, with the floating-
point spans deferred into arrays and folded with a strictly sequential
``np.add.accumulate`` so every accumulator stays bit-identical to the
in-order ``+=`` chain the event path would have performed.

Macro execution is a *pure fast path*, exactly like the ENGINE_VERSION 2
playbook: any divergence from the learned segment (an allocation inside
the loop, a first XNACK fault on an unseen page, a contended lock or a
non-empty event queue) falls back to ordinary event-by-event execution
for that operation.  The bench differential (``macro_identical`` /
``macro_differential``) pins telemetry, traces and outputs bit-identical
to the fused engine for every registry workload under all four runtime
configurations.

Layering note: this module lives in ``repro.sim`` because it *is* an
engine variant (:class:`MacroEnvironment` is what ``ApuSystem`` selects),
but the replay mirrors necessarily know about the runtime layers above.
Those imports happen inside :class:`MacroExecutor` construction — by the
time a runtime exists, every layer is loaded — keeping the module-level
dependency graph of ``repro.sim`` exactly as before.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import Environment

__all__ = [
    "MacroEnvironment",
    "MacroExecutor",
    "MacroStats",
    "SegmentTracker",
    "declared_period",
    "OBSERVE",
    "MATCH",
    "DIVERGE",
]

#: tracker verdicts for one operation token
OBSERVE = 0  #: no segment armed yet — execute normally, keep recording
MATCH = 1    #: token matches the armed segment — eligible for replay
DIVERGE = 2  #: token broke the armed segment — disarm, execute normally

#: longest repeating segment the tracker will learn (QMCPack's steady
#: step is 103 operations; SPECaccel loops are far shorter)
MAX_PERIOD = 256

#: occurrence history kept per distinct token (candidate-period source)
_OCC_KEEP = 32

#: token stream is trimmed back to 4×MAX_PERIOD once it exceeds this
_STREAM_KEEP = 8 * MAX_PERIOD

#: programs that failed before completing one full cycle are blacklisted
#: (micro-periods inside a larger segment); bounded so a pathological
#: stream cannot grow the set forever
_BLACKLIST_MAX = 64


class MacroEnvironment(Environment):
    """Marker environment selected by ``engine="macro"``.

    Scheduling behaviour is identical to the fused :class:`Environment`;
    the runtime checks ``isinstance(env, MacroEnvironment)`` to decide
    whether to attach a :class:`MacroExecutor`.  Keeping the marker on the
    environment (rather than a flag on the runtime) means the engine
    choice travels with the system object through every construction
    path — ``ApuSystem``, ``execute``, the experiment cells, the CLI.
    """

    __slots__ = ()


@dataclass
class MacroStats:
    """Counters describing how much work the macro engine absorbed."""

    ops_seen: int = 0          #: tokenized operations observed
    ops_replayed: int = 0      #: operations macro-executed (fast path)
    guard_fallbacks: int = 0   #: segment matched but a runtime guard failed
    divergences: int = 0       #: armed segment broken by a mismatched token
    flushes: int = 0           #: deferred-accumulator folds
    boundary_events: int = 0   #: segment-boundary markers (pool/copy/memmgr)

    def as_dict(self) -> Dict[str, int]:
        return {
            "ops_seen": self.ops_seen,
            "ops_replayed": self.ops_replayed,
            "guard_fallbacks": self.guard_fallbacks,
            "divergences": self.divergences,
            "flushes": self.flushes,
            "boundary_events": self.boundary_events,
        }


class SegmentTracker:
    """Online periodicity detector over one thread's operation tokens.

    Tokens are structural fingerprints of OpenMP operations (kind, map
    clauses by ``(kind, always, nbytes)``, kernel name/compute time) —
    deliberately *free of buffer identity*, so QMCPack's rotation through
    16 spline chunks still fingerprints as one 103-operation step.  All
    replay side effects are computed from the live clause objects, so the
    coarse token never affects correctness, only *when* replay engages.

    Detection tries, for each new token, candidate periods derived from
    that token's previous occurrences — largest first, so a full
    application step wins over the ``[enter, exit]`` and ``[target]``
    micro-periods nested inside it once two full periods of history
    exist.  A candidate arms only after two consecutive occurrences of
    the full window verify equal; a declared ``hint`` period (from the
    MapCost IR) may arm early, after a single window plus one token of
    agreement.

    While a segment is armed, matching costs one tuple compare — matched
    tokens are *not* recorded live.  On divergence the armed stretch is
    spliced back into the stream retroactively (it is fully determined
    by the program and the match count), so history stays contiguous and
    detection behaves exactly as if every token had been recorded.
    """

    __slots__ = (
        "hint",
        "max_period",
        "stream",
        "off",
        "occ",
        "program",
        "pos",
        "streak",
        "blacklist",
        "arms",
    )

    def __init__(self, hint: Optional[int] = None, max_period: int = MAX_PERIOD):
        self.hint = hint if hint and 1 <= hint <= max_period else None
        self.max_period = max_period
        self.stream: List[object] = []
        self.off = 0  #: absolute index of ``stream[0]``
        self.occ: Dict[object, deque] = {}
        self.program: Optional[Tuple[object, ...]] = None
        self.pos = 0
        self.streak = 0
        self.blacklist: set = set()
        self.arms = 0

    @property
    def armed(self) -> bool:
        return self.program is not None

    def advance(self, token) -> int:
        """Feed one operation token; returns OBSERVE / MATCH / DIVERGE."""
        prog = self.program
        if prog is not None:
            if token == prog[self.pos]:
                pos = self.pos + 1
                self.pos = 0 if pos == len(prog) else pos
                self.streak += 1
                return MATCH
            # armed segment broken: programs that never survived one full
            # cycle are micro-periods — blacklist them so detection does
            # not thrash re-arming them inside the larger true period
            if self.streak < len(prog) and len(self.blacklist) < _BLACKLIST_MAX:
                self.blacklist.add(prog)
            # matched tokens were never recorded; splice the armed
            # stretch back in (it is fully determined by the program), so
            # the stream stays contiguous and a larger true period — say
            # QMCPack's 103-op step around a [target]-run micro-period —
            # can still be detected from pre-divergence occurrences
            self._rebuild()
        self._push(token)
        self._detect(token)
        return OBSERVE if prog is None else DIVERGE

    def disarm(self) -> None:
        """Externally disarm (segment boundary), splicing the armed
        stretch back into the recorded stream first."""
        if self.program is not None:
            self._rebuild()

    def _rebuild(self) -> None:
        """Record the armed stretch retroactively and disarm.

        Matched tokens are not pushed while armed (the hot path is one
        tuple compare), but they are fully determined by the program and
        the match count: the last ``streak`` tokens are the program
        cycled to end just before ``pos``.  Pushing them (capped at the
        stream's own retention bound) makes divergence exactly equivalent
        to having recorded every token, so detection quality is
        unaffected by the armed-path shortcut.
        """
        prog = self.program
        pos, streak = self.pos, self.streak
        self.program = None
        n = min(streak, 3 * self.max_period)
        if n:
            cycle = prog[pos:] + prog[:pos]  # one cycle ending at pos-1
            reps = -(-n // len(prog))
            for token in (cycle * reps)[-n:]:
                self._push(token)

    # ------------------------------------------------------------------
    def _push(self, token) -> None:
        stream = self.stream
        stream.append(token)
        k = self.off + len(stream) - 1
        d = self.occ.get(token)
        if d is None:
            if len(self.occ) > 2048:  # unbounded distinct tokens: reset
                self.occ.clear()
            d = deque(maxlen=_OCC_KEEP)
            self.occ[token] = d
        d.append(k)
        if len(stream) > _STREAM_KEEP:
            drop = len(stream) - 4 * self.max_period
            del stream[:drop]
            self.off += drop

    def _detect(self, token) -> None:
        """Try to arm a repeating segment ending at the token just pushed."""
        stream = self.stream
        off = self.off
        k = off + len(stream) - 1
        cands = set()
        for o in self.occ[token]:
            dist = k - o
            if 1 <= dist <= self.max_period:
                cands.add(dist)
        hint = self.hint
        if hint is not None:
            cands.add(hint)
        blacklist = self.blacklist
        for length in sorted(cands, reverse=True):
            s0 = k - 2 * length + 1
            if s0 < off:
                continue
            i = s0 - off
            window = stream[i + length:]
            if stream[i:i + length] == window:
                prog = tuple(window)
                if prog in blacklist:
                    continue
                self.program = prog
                self.pos = 0
                self.streak = 0
                self.arms += 1
                return
        # hint-assisted early arming: one declared period plus a single
        # token of agreement, used before 2×hint history exists
        if hint is not None and k - 2 * hint + 1 < off <= k - hint:
            j = k - hint - off
            if stream[j] == token:
                prog = tuple(stream[j + 1:])
                if prog not in blacklist:
                    self.program = prog
                    self.pos = 0
                    self.streak = 0
                    self.arms += 1


def _clause_token(maps) -> Tuple:
    """Identity-free fingerprint of a map-clause list."""
    return tuple([(c.kind, c.always, c.buffer.range.nbytes) for c in maps])


def _match_clauses(ct, maps) -> bool:
    """``ct == _clause_token(maps)`` without building the token.

    The armed-segment hot path compares every operation against its
    expected token; doing it field-by-field on the live clauses skips
    two tuple allocations per operation.
    """
    if len(ct) != len(maps):
        return False
    for (kind, always, nbytes), c in zip(ct, maps):
        if (
            c.kind is not kind
            or c.always != always
            or c.buffer.range.nbytes != nbytes
        ):
            return False
    return True


def _acc(x0: float, vals: List[float]) -> float:
    """Fold ``vals`` onto ``x0`` exactly as a sequential ``+=`` chain.

    ``np.add.accumulate`` is a strictly sequential recurrence (unlike
    ``np.add.reduce``/``np.sum``, which are pairwise and therefore NOT
    bit-identical to in-order addition).
    """
    arr = np.empty(len(vals) + 1)
    arr[0] = x0
    arr[1:] = vals
    return float(np.add.accumulate(arr)[-1])


class MacroExecutor:
    """Replays steady-state OpenMP operations without the event loop.

    Attached by :class:`~repro.omp.runtime.OpenMPRuntime` when its system
    runs a :class:`MacroEnvironment` and the configuration is replayable
    (a zero-copy policy with deterministic jitter).  ``OmpThread`` hooks
    route every operation through :meth:`enter_data`/:meth:`exit_data`/
    :meth:`target` (replayable) or :meth:`note` (pass-through): the
    tracker consumes one token per operation either way, so the learned
    segment always reflects true program order.

    Replay mirrors the event path's arithmetic *exactly*: the clock is a
    sequence of single-charge settles (``now = now + c`` in program
    order), event counts are the known per-operation constants of the
    fused engine, live-clock spans (signal waits, prefault durations,
    resource busy time) are computed from the replayed clock, and all
    float accumulators are deferred and folded sequentially at the next
    flush point — which always happens before any event-path operation
    can touch the same accumulator.
    """

    def __init__(self, runtime):
        # runtime-layer imports at construction time (see module docstring)
        from ..core.config import RuntimeConfig
        from ..core.policies import EagerMapsPolicy, ZeroCopyPolicy
        from ..hsa.api import KernelRecord
        from ..omp.mapping import MapKind, MappingError, PresentEntry

        self.rt = runtime
        self.env = runtime.env
        self.hsa = runtime.hsa
        self.cost = runtime.cost
        self.policy = runtime.policy
        self.table = runtime.table
        self.ledger = runtime.ledger
        self.lock = runtime.lock
        self.mm_lock = runtime.mm_lock
        self.queues = runtime.hsa.queues
        self.syscalls = runtime.hsa.syscalls
        self.trace = runtime.hsa.trace
        self._kt = runtime.kernel_trace
        self.driver = runtime.system.driver
        self.gpu_pt = runtime.system.gpu_pt

        opj = runtime.hsa.op_jitter
        syj = runtime.hsa.syscalls.jitter
        #: replay is exact only for zero-copy policies (Copy's pool
        #: allocations and SDMA copies stay on the event path) with
        #: deterministic per-op jitter; the correlated per-run ``scale``
        #: factor is a plain multiplier and is mirrored exactly.
        self.eligible = (
            isinstance(runtime.policy, ZeroCopyPolicy)
            and opj.sigma == 0.0
            and opj.tail_p == 0.0
            and syj.sigma == 0.0
            and syj.tail_p == 0.0
            and not runtime.hsa.trace.detailed
        )
        self.is_eager = isinstance(runtime.policy, EagerMapsPolicy)
        self.is_usm = runtime.config is RuntimeConfig.UNIFIED_SHARED_MEMORY
        self.scale = opj.scale
        c = self.cost
        self.zc_us = c.zc_map_call_us
        self.wait_base = c.signal_wait_base_us * self.scale
        self.dispatch_us = c.dispatch_us
        self.usm_indirection_us = c.usm_indirection_us
        self.sys_base = c.syscall_base_us
        self.pf_extra = max(0.0, c.prefault_call_us - c.syscall_base_us)
        self.verify_us = c.prefault_verify_page_us
        self.page_size = self.driver.page_size

        self._MapKind = MapKind
        self._DELETE = MapKind.DELETE
        self._RELEASE = MapKind.RELEASE
        self._MappingError = MappingError
        self._PresentEntry = PresentEntry
        self._KernelRecord = KernelRecord

        self.stats = MacroStats()
        self.hint: Optional[int] = None
        self.trackers: Dict[int, SegmentTracker] = {}
        # one-entry tracker cache (single-thread steady state never misses)
        self._last_tid = -1
        self._last_tr: Optional[SegmentTracker] = None

        # deferred float accumulators (flushed with _acc); signal-wait
        # spans land in the trace deferral list and are folded into
        # ledger.wait_us from there (the event path computes both from
        # the same ``env.now - t0`` subtraction, so the values coincide)
        self._d_prefault: List[float] = []  # ledger.prefault_us
        self._d_sys: List[float] = []       # syscalls.total_us
        self._d_lock: List[float] = []      # device-lock busy time
        self._d_queues: List[float] = []    # gpu-queue busy time
        # keys appear in trace.stats only when their list is non-empty at
        # a flush, and replay can only engage after the event path has
        # already recorded both call names during segment observation —
        # so pre-creating the deferral lists never perturbs the trace's
        # name-insertion order.
        self._d_trace: Dict[str, List[float]] = {
            "signal_wait_scacquire": [],
            "svm_attributes_set": [],
        }
        self._dt_wait = self._d_trace["signal_wait_scacquire"]
        self._dt_svm = self._d_trace["svm_attributes_set"]
        self._dirty = False

        # residency memo: ranges verified fully GPU-resident, valid while
        # the page table's install/evict epoch stamp is unchanged
        self._pt_stamp = (-1, -1)
        self._resident: set = set()

    # ------------------------------------------------------------------
    # tracker plumbing
    # ------------------------------------------------------------------
    def _tracker(self, tid: int) -> SegmentTracker:
        if tid == self._last_tid:
            return self._last_tr
        tr = self.trackers.get(tid)
        if tr is None:
            tr = SegmentTracker(hint=self.hint)
            self.trackers[tid] = tr
        self._last_tid = tid
        self._last_tr = tr
        return tr

    def note(self, tid: int, token) -> None:
        """Consume one pass-through operation token (never replayed)."""
        st = self._tracker(tid).advance(token)
        self.stats.ops_seen += 1
        if st == DIVERGE:
            self.stats.divergences += 1
        if self._dirty:
            self.flush()

    def on_boundary(self, kind: str) -> None:
        """Segment-boundary marker from the HSA/memmgr layers.

        Pool allocations, SDMA copies and memory-manager traffic mark
        phase boundaries (init, Copy-mode storage churn): flush deferred
        state and disarm every tracker so detection restarts cleanly.
        """
        self.stats.boundary_events += 1
        if self._dirty:
            self.flush()
        for tr in self.trackers.values():
            tr.disarm()

    # ------------------------------------------------------------------
    # guards
    # ------------------------------------------------------------------
    def _ready(self) -> bool:
        """Whole-engine preconditions for replaying one operation.

        The event queue must be empty (no other runnable process — their
        float adds would interleave with ours) and both shared resources
        idle, so the operation's event path would run uncontended from
        start to finish.  Fused charges are settled first; an unconsumed
        fused grant is a pending heap event, and other waiters of the
        resuming event still have to run at its time, so either forces a
        fallback (the event path would not fuse there either).
        """
        env = self.env
        if env._pending_n:
            env._settle()
        if env._queue or env._fused is not None or env._hold:
            return False
        if self.lock._in_use or self.queues._in_use:
            return False
        if self.is_eager and self.mm_lock._in_use:
            return False
        if self.rt.recorder is not None or self.table.observer is not None:
            return False
        return True

    def _all_resident(self, ranges) -> bool:
        """True when every range is fully GPU-resident (no XNACK faults,
        no prefault installs).  Memoized per page-table epoch."""
        pt = self.gpu_pt
        stamp = (pt.install_count, pt.evict_count)
        if stamp != self._pt_stamp:
            self._resident.clear()
            self._pt_stamp = stamp
        res = self._resident
        missing = self.driver.has_missing_pages
        for rng in ranges:
            key = (rng.start, rng.nbytes)
            if key not in res:
                if missing((rng,)):
                    return False
                res.add(key)
        return True

    def _maps_resident(self, maps) -> bool:
        """:meth:`_all_resident` over a clause list's buffer ranges,
        without materializing the range list (the per-target hot path)."""
        pt = self.gpu_pt
        stamp = (pt.install_count, pt.evict_count)
        if stamp != self._pt_stamp:
            self._resident.clear()
            self._pt_stamp = stamp
        res = self._resident
        missing = self.driver.has_missing_pages
        for clause in maps:
            rng = clause.buffer.range
            key = (rng.start, rng.nbytes)
            if key not in res:
                if missing((rng,)):
                    return False
                res.add(key)
        return True

    def _fallback(self, st: int) -> None:
        if st == DIVERGE:
            self.stats.divergences += 1
        else:
            self.stats.guard_fallbacks += 1
        if self._dirty:
            self.flush()

    # ------------------------------------------------------------------
    # replayable operations
    # ------------------------------------------------------------------
    def enter_data(self, tid: int, maps) -> bool:
        """Try to macro-execute one ``target enter data``; False = event path."""
        tr = self._last_tr if tid == self._last_tid else self._tracker(tid)
        prog = tr.program
        if prog is not None:
            exp = prog[tr.pos]
            if (
                len(exp) == 2
                and exp[0] == "enter"
                and _match_clauses(exp[1], maps)
            ):
                pos = tr.pos + 1
                tr.pos = 0 if pos == len(prog) else pos
                tr.streak += 1
                self.stats.ops_seen += 1
                if not self._ready() or (
                    self.is_eager
                    and not self._all_resident([c.buffer.range for c in maps])
                ):
                    self._fallback(MATCH)
                    return False
                self._replay_enters(maps)
                self.stats.ops_replayed += 1
                return True
        st = tr.advance(("enter", _clause_token(maps)))
        self.stats.ops_seen += 1
        self._fallback(st)
        return False

    def exit_data(self, tid: int, maps) -> bool:
        """Try to macro-execute one ``target exit data``; False = event path."""
        tr = self._last_tr if tid == self._last_tid else self._tracker(tid)
        prog = tr.program
        if prog is not None:
            exp = prog[tr.pos]
            if (
                len(exp) == 2
                and exp[0] == "exit"
                and _match_clauses(exp[1], maps)
            ):
                pos = tr.pos + 1
                tr.pos = 0 if pos == len(prog) else pos
                tr.streak += 1
                self.stats.ops_seen += 1
                if not self._ready():
                    self._fallback(MATCH)
                    return False
                self._replay_exits(maps)
                self.stats.ops_replayed += 1
                return True
        st = tr.advance(("exit", _clause_token(maps)))
        self.stats.ops_seen += 1
        self._fallback(st)
        return False

    def target(self, tid: int, name: str, compute_us: float, maps, fn,
               globals_used):
        """Try to macro-execute one synchronous ``target`` region.

        Returns the :class:`KernelRecord` on success, None to fall back.
        """
        tr = self._last_tr if tid == self._last_tid else self._tracker(tid)
        prog = tr.program
        matched = False
        if prog is not None:
            exp = prog[tr.pos]
            if (
                len(exp) == 5
                and exp[0] == "target"
                and exp[1] == name
                and exp[2] == compute_us
                and _match_clauses(exp[3], maps)
                and len(exp[4]) == len(globals_used)
                and (
                    not globals_used
                    or all(g.name == n for g, n in zip(globals_used, exp[4]))
                )
            ):
                pos = tr.pos + 1
                tr.pos = 0 if pos == len(prog) else pos
                tr.streak += 1
                matched = True
        if not matched:
            st = tr.advance((
                "target",
                name,
                compute_us,
                _clause_token(maps),
                tuple(g.name for g in globals_used),
            ))
            self.stats.ops_seen += 1
            self._fallback(st)
            return None
        self.stats.ops_seen += 1
        rt = self.rt
        usm_globals = self.is_usm and bool(globals_used)
        if not self._ready() or rt.kernel_cost_adjuster is not None:
            self._fallback(MATCH)
            return None
        if usm_globals:
            resident = self._all_resident(
                [c.buffer.range for c in maps]
                + [g.range for g in globals_used]
            )
        else:
            resident = self._maps_resident(maps)
        if not resident:
            self._fallback(MATCH)
            return None

        # ---- implicit map-enter --------------------------------------
        self._replay_enters(maps)
        # ---- kernel dispatch + completion wait -----------------------
        env = self.env
        queues = self.queues
        args = {c.buffer.name: c.buffer.payload for c in maps}
        if globals_used:
            policy = self.policy
            gviews = {g.name: policy.resolve_global(g) for g in globals_used}
            if usm_globals:
                compute_us = compute_us + len(gviews) * self.usm_indirection_us
        else:
            gviews = {}
        self.hsa.kernels_dispatched += 1
        t_submit = env._now
        # six events per synchronous target: kernel-process bootstrap,
        # uncontended queue acquire, fused kernel charge (settled at
        # release), completion signal, kernel-process terminal event and
        # the post-wait base charge — batched here (pure int adds)
        env._event_count += 6
        if t_submit > queues._last_change:
            queues._last_change = t_submit
        dur = (self.dispatch_us + compute_us) * self.scale
        t_end = t_submit + dur
        if fn is not None:
            fn(args, gviews)
        dt = t_end - t_submit  # NOT ``dur``: (a+b)-a is not bitwise b
        if dt > 0.0:
            self._d_queues.append(dt)
            queues._last_change = t_end
        rec = self._KernelRecord(
            name=name,
            submit_us=t_submit,
            start_us=t_submit,
            end_us=t_end,
            compute_us=compute_us,
            fault_stall_us=0.0,
            n_faults=0,
        )
        if self._kt.enabled:
            rt._on_kernel_complete(rec)
        else:
            # inlined completion bookkeeping (the zero fault-stall/fault-
            # count adds are exact no-ops and are skipped)
            ledger = self.ledger
            ledger.n_kernels += 1
            ledger.kernel_compute_us += compute_us
        # the post-wait base charge is a real timeout: the kernel
        # process's terminal event shares the completion timestamp
        env._now = t_end + self.wait_base
        # ledger.wait_us and the traced scacquire span are the same
        # ``env.now - t0`` value in the event path; one deferral list
        # feeds both at flush
        self._dt_wait.append(env._now - t_submit)
        self._dirty = True
        # ---- implicit map-exit ---------------------------------------
        self._replay_exits(maps)
        self.stats.ops_replayed += 1
        return rec

    # ------------------------------------------------------------------
    # replay mirrors (exact event-path arithmetic)
    # ------------------------------------------------------------------
    def _replay_enters(self, maps) -> None:
        """Mirror of ``ZeroCopyPolicy.map_enter_all`` (+ Eager prefault).

        Present-table operations are inlined (``_ready`` guarantees no
        observer is attached, so ``lookup``/``insert``'s ``_notify`` calls
        are no-ops); the error paths route back through the real table
        methods so exceptions stay identical.
        """
        env = self.env
        table = self.table
        entries = table._entries
        lock = self.lock
        zc = self.zc_us
        d_lock = self._d_lock
        delete, release = self._DELETE, self._RELEASE
        eager = self.is_eager
        PresentEntry = self._PresentEntry
        self._dirty = True
        # clock / lock-stamp / counters run in locals and are written back
        # once; the ``finally`` keeps error-path state identical to the
        # per-clause event path (the raising clause has already advanced
        # the clock and its ledger count, exactly as ``map_enter_all``
        # would have)
        now = env._now
        lc = lock._last_change
        n = 0
        try:
            for clause in maps:
                kind = clause.kind
                if kind is release or kind is delete:
                    raise self._MappingError(f"map({kind.value}) is exit-only")
                buf = clause.buffer
                if buf.freed:
                    buf.check_alive()
                n += 1
                if now > lc:  # uncontended acquire accounting
                    lc = now
                t1 = now + zc
                dt = t1 - now
                if dt > 0.0:  # release accounting while held
                    d_lock.append(dt)
                    lc = t1
                now = t1
                start = buf.range.start
                entry = entries.get(start)
                if entry is None:
                    entries[start] = PresentEntry(
                        host=buf, device=None, refcount=1
                    )
                    ne = len(entries)
                    if ne > table.peak_entries:
                        table.peak_entries = ne
                elif entry.host is buf:
                    entry.refcount += 1
                else:
                    table.lookup(buf)  # raises the collision MappingError
                if eager:
                    now = self._replay_prefault(buf.range, now)
        finally:
            env._now = now
            # acquire event + fused map-call charge (+ fused syscall
            # charge per Eager prefault)
            env._event_count += 3 * n if eager else 2 * n
            lock._last_change = lc
            self.ledger.n_map_enters += n

    def _replay_exits(self, maps) -> None:
        """Mirror of ``ZeroCopyPolicy.map_exit_all`` (table ops inlined)."""
        env = self.env
        table = self.table
        entries = table._entries
        lock = self.lock
        zc = self.zc_us
        d_lock = self._d_lock
        delete = self._DELETE
        self._dirty = True
        now = env._now
        lc = lock._last_change
        n = 0
        try:
            for clause in maps:
                buf = clause.buffer
                if buf.freed:
                    buf.check_alive()
                n += 1
                if now > lc:
                    lc = now
                t1 = now + zc
                dt = t1 - now
                if dt > 0.0:
                    d_lock.append(dt)
                    lc = t1
                now = t1
                start = buf.range.start
                entry = entries.get(start)
                if (
                    entry is None
                    or entry.host is not buf
                    or entry.refcount <= 0
                ):
                    # absent / collision / underflow: identical error paths
                    table.release(buf, delete=clause.kind is delete)
                    raise AssertionError("unreachable")  # pragma: no cover
                if clause.kind is delete:
                    entry.refcount = 0
                else:
                    entry.refcount -= 1
                if entry.refcount == 0:
                    del entries[start]
        finally:
            env._now = now
            env._event_count += 2 * n
            lock._last_change = lc
            self.ledger.n_map_exits += n

    def _replay_prefault(self, rng, now: float) -> float:
        """Mirror of ``EagerMapsPolicy._post_enter``'s verified fast path.

        Only reached when the range is fully resident, so the driver
        prefault is pure verification: no installs, no RNG draws, and the
        syscall duration reduces to the deterministic expression below.
        Runs on the caller's local clock (``now`` in → new ``now`` out);
        the caller accounts the fused syscall charge's event.
        """
        n_present = rng.n_pages(self.page_size)
        self.syscalls.invocations += 1
        work = n_present * self.verify_us
        dur = (self.sys_base + (self.pf_extra + work)) * self.scale
        self._d_sys.append(dur)
        t1 = now + dur
        self._dt_svm.append(dur)
        self._d_prefault.append(t1 - now)
        return t1

    # ------------------------------------------------------------------
    # deferred-accumulator flush
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Fold every deferred float list into its live accumulator.

        Called before any event-path operation can touch the same
        accumulators (pass-through notes, guard fallbacks, divergences,
        boundary markers) and once after the run completes — so the
        in-order addition chain each accumulator sees is identical to
        pure event-by-event execution.
        """
        if not self._dirty:
            return
        self._dirty = False
        self.stats.flushes += 1
        ledger = self.ledger
        if self._dt_wait:
            # the scacquire deferral list doubles as the wait_us list:
            # both are ``env.now - t0`` with the same ``t0`` on the event
            # path, hence bitwise-identical contents (cleared below by
            # the trace fold)
            ledger.wait_us = _acc(ledger.wait_us, self._dt_wait)
        if self._d_prefault:
            ledger.prefault_us = _acc(ledger.prefault_us, self._d_prefault)
            self._d_prefault.clear()
        if self._d_sys:
            sysm = self.syscalls
            sysm.total_us = _acc(sysm.total_us, self._d_sys)
            self._d_sys.clear()
        if self._d_lock:
            lock = self.lock
            lock._busy_time = _acc(lock._busy_time, self._d_lock)
            self._d_lock.clear()
        if self._d_queues:
            queues = self.queues
            queues._busy_time = _acc(queues._busy_time, self._d_queues)
            self._d_queues.clear()
        stats = self.trace.stats
        CallStats = None
        for name, vals in self._d_trace.items():
            if not vals:
                continue
            st = stats.get(name)
            if st is None:
                if CallStats is None:
                    from ..trace.hsa_trace import CallStats
                st = CallStats()
                stats[name] = st
            st.count += len(vals)
            st.total_us = _acc(st.total_us, vals)
            vals.clear()


# ---------------------------------------------------------------------------
# declared periodicity from the MapCost IR
# ---------------------------------------------------------------------------

#: memoized ``declared_period`` results keyed by workload class + scalar
#: attributes.  The hint only tunes *when* replay engages — a stale or
#: wrong hint can never affect simulated results — so memoizing on the
#: scalar configuration surface is safe even if a complex attribute were
#: to change the extracted IR.
_PERIOD_MEMO: Dict[tuple, Optional[int]] = {}


def _period_memo_key(workload) -> Optional[tuple]:
    import enum

    try:
        attrs = vars(workload)
    except TypeError:
        return None
    scalars = tuple(sorted(
        (k, v) for k, v in attrs.items()
        if isinstance(v, (int, float, str, bool, enum.Enum, type(None)))
    ))
    return (type(workload), scalars)


def declared_period(workload) -> Optional[int]:
    """Operation count of the workload's dominant steady loop, or None.

    Uses the MapCost static extractor: a top-level ``Loop(trips=N)`` node
    whose body folds to a fixed operation count declares the workload's
    periodicity, letting the tracker arm after a single period instead of
    two.  Any imprecision (branches, unresolved loops, extraction errors)
    degrades to None — auto-detection remains the ground truth.
    """
    key = _period_memo_key(workload)
    if key is not None and key in _PERIOD_MEMO:
        return _PERIOD_MEMO[key]
    period = _declared_period_uncached(workload)
    if key is not None:
        if len(_PERIOD_MEMO) > 256:
            _PERIOD_MEMO.clear()
        _PERIOD_MEMO[key] = period
    return period


def _declared_period_uncached(workload) -> Optional[int]:
    try:
        from ..check.static import ir as _ir
        from ..check.static.extract import extract_workload

        wir = extract_workload(workload)
    except Exception:
        return None
    counted = (
        _ir.AllocOp, _ir.FreeOp, _ir.EnterOp, _ir.ExitOp, _ir.TargetOp,
        _ir.WaitOp, _ir.UpdateOp, _ir.GlobalSyncOp,
    )
    silent = (_ir.HostWriteOp, _ir.OutputOp, _ir.ReturnNode)

    def count(seq) -> Optional[int]:
        n = 0
        for node in seq.items:
            if isinstance(node, counted):
                n += 1
            elif isinstance(node, silent):
                continue
            elif isinstance(node, _ir.Loop):
                if node.trips is None:
                    return None
                inner = count(node.body)
                if inner is None:
                    return None
                n += node.trips * inner
            else:  # Branch or unknown node: imprecise
                return None
        return n

    best: Optional[int] = None
    best_total = 0
    try:
        threads = wir.threads
    except Exception:
        return None
    for prog in threads:
        for node in prog.body.items:
            if not isinstance(node, _ir.Loop) or node.trips is None:
                continue
            period = count(node.body)
            if period is None or not 1 <= period <= MAX_PERIOD:
                continue
            total = node.trips * period
            if total > best_total:
                best_total = total
                best = period
    return best
