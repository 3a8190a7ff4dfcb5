"""MapRace unit tests: the MHP edge cases the differential can't see.

The static/dynamic differential (tests/test_static_differential.py)
gates MapRace's recall and precision on the corpus end-to-end.  These tests pin the *mechanism* on synthetic
IR: barrier phase re-alignment, the wait-on-the-wrong-handle hazard,
and the single-thread no-op guarantee.
"""

from repro.check.corpus import (
    CrossThreadHostWriteWorkload,
    ExitExitRaceWorkload,
    NowaitResultRaceWorkload,
)
from repro.check.static.extract import extract_workload
from repro.check.static.ir import (
    AbstractBuffer,
    BufRef,
    ClauseIR,
    EnterOp,
    ExitOp,
    GlobalSyncOp,
    OutputOp,
    Seq,
    TargetOp,
    ThreadProgram,
    WaitOp,
    WorkloadIR,
)
from repro.check.static.race import PhaseInterval, race_findings
from repro.core import RuntimeConfig
from repro.omp.mapping import MapKind

COPY = RuntimeConfig.COPY
USM = RuntimeConfig.UNIFIED_SHARED_MEMORY
IZC = RuntimeConfig.IMPLICIT_ZERO_COPY
EAGER = RuntimeConfig.EAGER_MAPS


# ---------------------------------------------------------------------------
# phase intervals
# ---------------------------------------------------------------------------


def test_phase_interval_algebra():
    p = PhaseInterval()
    assert (p.lo, p.hi) == (0, 0)
    assert p.bump() == PhaseInterval(1, 1)
    assert p.widen() == PhaseInterval(0, None)
    assert p.widen().bump() == PhaseInterval(1, None)
    assert p.join(PhaseInterval(2, 3)) == PhaseInterval(0, 3)
    assert p.join(PhaseInterval(1, None)) == PhaseInterval(0, None)


def test_phase_interval_overlap():
    assert PhaseInterval(0, 0).overlaps(PhaseInterval(0, 0))
    assert not PhaseInterval(0, 0).overlaps(PhaseInterval(1, 1))
    assert not PhaseInterval(2, 3).overlaps(PhaseInterval(0, 1))
    # unbounded intervals overlap everything at or above their lo
    assert PhaseInterval(0, None).overlaps(PhaseInterval(7, 7))
    assert not PhaseInterval(5, None).overlaps(PhaseInterval(0, 4))


# ---------------------------------------------------------------------------
# synthetic-IR helpers
# ---------------------------------------------------------------------------


def _buf(name, tid=0, lineno=1, nbytes=64):
    b = AbstractBuffer(
        site=f"t{tid}:L{lineno}", name=name, tid=tid, lineno=lineno,
        nbytes=nbytes,
    )
    return b, BufRef(sites=frozenset({b}), display=name)


def _ir(*threads):
    return WorkloadIR(
        name="synthetic", n_threads=len(threads), threads=list(threads)
    )


def _thread(tid, ops, buffers=(), handles=None):
    return ThreadProgram(
        tid=tid,
        body=Seq(items=list(ops)),
        buffers={b.name: b for b in buffers},
        handles=dict(handles or {}),
    )


# ---------------------------------------------------------------------------
# barrier re-alignment: the k-th barrier of every thread is one aligned
# phase boundary, so accesses in disjoint phases never race
# ---------------------------------------------------------------------------


def test_barriers_realign_threads_and_suppress_the_race():
    b, ref = _buf("shared")
    clause = (ClauseIR(buf=ref, kind=MapKind.RELEASE),)
    # thread 0 exits in phase 0, *then* hits the barrier; thread 1 hits
    # the barrier first and exits in phase 1 — ordered, no MC-S21
    t0 = _thread(0, [ExitOp(lineno=2, clauses=clause), GlobalSyncOp(lineno=3)],
                 buffers=[b])
    t1 = _thread(1, [GlobalSyncOp(lineno=2), ExitOp(lineno=3, clauses=clause)])
    assert race_findings(_ir(t0, t1)) == []


def test_unordered_cross_thread_exits_race():
    b, ref = _buf("shared")
    clause = (ClauseIR(buf=ref, kind=MapKind.RELEASE),)
    # same two exits with the barriers removed: both in phase 0 → MC-S21
    t0 = _thread(0, [ExitOp(lineno=2, clauses=clause)], buffers=[b])
    t1 = _thread(1, [ExitOp(lineno=3, clauses=clause)])
    findings = race_findings(_ir(t0, t1))
    assert [(f.rule_id, f.buffer) for f in findings] == [("MC-S21", "shared")]


def test_enter_enter_pairs_are_benign():
    b, ref = _buf("shared")
    clause = (ClauseIR(buf=ref, kind=MapKind.TO),)
    t0 = _thread(0, [EnterOp(lineno=2, clauses=clause)], buffers=[b])
    t1 = _thread(1, [EnterOp(lineno=3, clauses=clause)])
    assert race_findings(_ir(t0, t1)) == []


# ---------------------------------------------------------------------------
# wait edges: only a wait naming the *right* handle orders the read
# ---------------------------------------------------------------------------


def _nowait_then_read(wait_handles):
    b, ref = _buf("out")
    ops = [
        TargetOp(lineno=2, kernel="producer",
                 clauses=(ClauseIR(buf=ref, kind=MapKind.FROM),),
                 nowait=True, handle_id=1),
    ]
    if wait_handles is not None:
        ops.append(WaitOp(lineno=3, handle_ids=frozenset(wait_handles)))
    ops.append(OutputOp(lineno=4, key="result", bufs=(ref,)))
    t0 = _thread(0, ops, buffers=[b],
                 handles={1: ((), frozenset({b}))})
    return race_findings(_ir(t0))


def test_wait_on_correct_handle_orders_the_result_read():
    assert _nowait_then_read({1}) == []


def test_wait_on_wrong_handle_does_not_order_the_result_read():
    for handles in (None, {999}):
        findings = _nowait_then_read(handles)
        assert [(f.rule_id, f.buffer) for f in findings] == \
            [("MC-S22", "out")], handles


# ---------------------------------------------------------------------------
# single-thread maps are a no-op for the cross-thread rule
# ---------------------------------------------------------------------------


def test_single_thread_enter_exit_is_race_free():
    b, ref = _buf("solo")
    t0 = _thread(0, [
        EnterOp(lineno=2, clauses=(ClauseIR(buf=ref, kind=MapKind.TO),)),
        ExitOp(lineno=3, clauses=(ClauseIR(buf=ref, kind=MapKind.DELETE),)),
    ], buffers=[b])
    assert race_findings(_ir(t0)) == []


# ---------------------------------------------------------------------------
# the three racy corpus workloads trigger exactly their rule
# ---------------------------------------------------------------------------


def _corpus_races(cls):
    w = cls()
    ir = extract_workload(w, name=w.name)
    return race_findings(ir)


def test_corpus_nowait_result_read_fires_mc_s22():
    findings = _corpus_races(NowaitResultRaceWorkload)
    assert [(f.rule_id, f.buffer) for f in findings] == \
        [("MC-S22", "async_out")]
    assert findings[0].breaks_under == (COPY, USM, IZC, EAGER)


def test_corpus_exit_exit_race_fires_mc_s21():
    findings = _corpus_races(ExitExitRaceWorkload)
    assert [(f.rule_id, f.buffer) for f in findings] == \
        [("MC-S21", "torndown")]


def test_corpus_cross_thread_host_write_fires_mc_s20():
    findings = _corpus_races(CrossThreadHostWriteWorkload)
    assert [(f.rule_id, f.buffer) for f in findings] == \
        [("MC-S20", "hotbuf")]
    # the config matrix is MC-R02's: benign under Copy's shadow snapshot
    assert findings[0].breaks_under == (USM, IZC, EAGER)
    assert findings[0].passes_under == (COPY,)
