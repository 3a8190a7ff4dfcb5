"""MapFlow static analysis: domains, CFG lowering, extraction, and the
abstract interpreter — including the acceptance-critical property that
every bundled clean workload analyzes to zero findings without a single
simulation event."""

import pytest

from repro.check.corpus import (
    DoubleUnmapWorkload,
    LeakWorkload,
    MissingMapWorkload,
    UnderflowWorkload,
    UseAfterUnmapWorkload,
)
from repro.check.registry import WORKLOADS
from repro.check.static import analyze_named, extract_workload, static_report
from repro.check.static.cfg import build_cfg
from repro.check.static.domains import (
    BOT,
    ONE,
    POS,
    TOP,
    ZERO,
    exact,
)
from repro.check.static.interp import analyze_ir
from repro.check.static.ir import (
    AllocOp,
    Branch,
    EnterOp,
    ExitOp,
    Loop,
    ReturnNode,
    Seq,
    TargetOp,
    ThreadProgram,
)
from repro.core import RuntimeConfig

COPY = RuntimeConfig.COPY
USM = RuntimeConfig.UNIFIED_SHARED_MEMORY
IZC = RuntimeConfig.IMPLICIT_ZERO_COPY
EAGER = RuntimeConfig.EAGER_MAPS


# ---------------------------------------------------------------------------
# refcount lattice
# ---------------------------------------------------------------------------
def test_refcount_chain_predicates():
    assert ZERO.definitely_absent and not ZERO.definitely_present
    assert ONE.definitely_present and not ONE.definitely_absent
    assert POS.definitely_present
    assert TOP.unknown and not TOP.definitely_absent
    assert BOT.is_bottom


def test_refcount_enter_exit_round_trip():
    assert ZERO.enter() is ONE
    assert ONE.exit() is ZERO
    assert exact(2).enter().exit() == exact(2)
    # saturation band stays sound (not exact): >=4 minus one is still
    # definitely present, even though the count is no longer tracked
    sat = exact(3).enter()
    assert sat.definitely_present
    assert sat.exit().definitely_present


def test_refcount_join_is_flat_on_presence_disagreement():
    # join(0, 1) must NOT be a chain lub — "absent on some path" is the
    # fact the reporting rules need
    assert ZERO.join(ONE) is TOP
    assert ONE.join(exact(2)) is POS       # agree on presence
    assert BOT.join(ONE) is ONE
    assert TOP.join(ZERO) is TOP
    assert ZERO.join(ZERO) is ZERO


def test_refcount_join_commutes():
    pts = [BOT, TOP, POS, ZERO, ONE, exact(2), exact(3)]
    for a in pts:
        for b in pts:
            assert a.join(b) == b.join(a)


# ---------------------------------------------------------------------------
# CFG lowering
# ---------------------------------------------------------------------------
def _program(body):
    return ThreadProgram(tid=0, body=body)


def test_cfg_branch_forks_and_rejoins():
    body = Seq([AllocOp(), Branch(then=Seq([EnterOp()]), orelse=Seq([]))])
    cfg = build_cfg(_program(body))
    entry_succs = cfg.blocks[0].succs
    assert len(entry_succs) == 2           # both arms feasible
    # both arm tails reach a common join block
    joins = {s.succs[0].bid for s in entry_succs}
    assert len(joins) == 1


def test_cfg_for_loop_has_back_edge_and_runs_at_least_once():
    cfg = build_cfg(_program(Seq([Loop(body=Seq([EnterOp()]), min_trips=1)])))
    # entry falls straight into the body: no zero-trip bypass edge
    entry = cfg.blocks[0]
    assert len(entry.succs) == 1
    body_head = entry.succs[0]
    assert body_head in body_head.succs    # back edge


def test_cfg_while_loop_can_run_zero_times():
    cfg = build_cfg(_program(Seq([Loop(body=Seq([EnterOp()]), min_trips=0,
                                       kind="while")])))
    entry = cfg.blocks[0]
    header = entry.succs[0]
    assert len(header.succs) == 2          # body or straight to after


def test_cfg_return_jumps_to_exit():
    body = Seq([AllocOp(), ReturnNode(), EnterOp()])
    cfg = build_cfg(_program(body))
    assert cfg.exit in cfg.blocks[0].succs


# ---------------------------------------------------------------------------
# extraction over the real bundled workloads
# ---------------------------------------------------------------------------
def test_extraction_folds_trip_counts_of_qmcpack():
    from repro.workloads import Fidelity, QmcPackNio

    ir = extract_workload(QmcPackNio(size=2, n_threads=1,
                                     fidelity=Fidelity.TEST), "qmcpack")
    assert ir.n_threads == 1
    assert len(ir.threads) == 1
    # the electron loop (71 kernels per step at TEST fidelity) cannot be
    # unrolled, so the IR must contain at least one abstract loop
    def has_loop(seq):
        return any(
            isinstance(i, Loop) or
            (isinstance(i, Branch) and (has_loop(i.then) or has_loop(i.orelse)))
            for i in seq.items
        )
    assert has_loop(ir.threads[0].body)


def test_extraction_records_declared_globals():
    from repro.workloads import Fidelity, GlobalBroadcast

    ir = extract_workload(GlobalBroadcast(fidelity=Fidelity.TEST), "gb")
    assert "coeffs" in ir.globals_declared


def test_extraction_uses_real_source_lines():
    ir = extract_workload(LeakWorkload(), "faulty-leak")
    (program,) = ir.threads
    allocs = [op for op in program.body.items if isinstance(op, AllocOp)]
    assert allocs and allocs[0].lineno > 100   # corpus.py file line, not 3


def test_extraction_registers_nowait_handles():
    ir = extract_workload(UseAfterUnmapWorkload(), "uaum")
    t0 = ir.thread(0)
    assert len(t0.handles) == 1
    (_clauses, refs), = t0.handles.values()
    assert {b.name for b in refs} == {"victim"}


# ---------------------------------------------------------------------------
# interpreter on the faulty corpus (per-defect)
# ---------------------------------------------------------------------------
def _static_rule_ids(workload, name):
    report = static_report(workload, name)
    assert report.aborted is None, report.aborted
    return {(f.rule_id, f.buffer) for f in report.findings}


def test_interpreter_flags_double_unmap_as_some_path_underflow():
    ids = _static_rule_ids(DoubleUnmapWorkload(), "dup")
    assert ("MC-S10", "dup") in ids


def test_interpreter_flags_exit_without_enter():
    ids = _static_rule_ids(UnderflowWorkload(), "uf")
    assert ("MC-S10", "uf") in ids


def test_interpreter_flags_leak_at_thread_end():
    ids = _static_rule_ids(LeakWorkload(), "leak")
    assert ("MC-S12", "leaky") in ids


def test_interpreter_flags_cross_thread_use_after_exit_data():
    report = static_report(UseAfterUnmapWorkload(), "uaum")
    [f] = [f for f in report.findings if f.rule_id == "MC-S11"]
    assert f.buffer == "victim"
    assert f.tid == 1                      # the exiting thread
    assert f.breaks_under == (COPY, USM, IZC, EAGER)


def test_interpreter_flags_uncovered_touch_with_portability_matrix():
    report = static_report(MissingMapWorkload(), "mm")
    [f] = [f for f in report.findings if f.rule_id == "MC-P10"]
    assert f.buffer == "ghost"
    # §IV.C: breaks where XNACK is off, silently works where it is on
    assert f.breaks_under == (COPY, EAGER)
    assert f.passes_under == (USM, IZC)
    # the covered buffer of the same kernel must NOT be flagged
    assert not [g for g in report.findings
                if g.rule_id == "MC-P10" and g.buffer == "ok"]


def test_static_findings_carry_source_locations():
    report = static_report(LeakWorkload(), "leak")
    [f] = report.findings
    path, line = f.source
    assert path.endswith("corpus.py")
    assert line > 1


def test_interpreter_underflow_is_path_sensitive():
    """An exit that underflows only on one branch arm must still be
    reported: 'on some path' is the rule's contract."""
    from repro.check.static.ir import (
        AbstractBuffer, BufRef, ClauseIR, WorkloadIR,
    )
    from repro.omp.mapping import MapKind

    site = AbstractBuffer(site="t0:L1.0", name="b", tid=0, lineno=1)
    ref = BufRef(sites=frozenset({site}))
    enter = lambda: EnterOp(clauses=(ClauseIR(ref, MapKind.TO),))
    exit_ = lambda: ExitOp(clauses=(ClauseIR(ref, MapKind.RELEASE),))
    body = Seq([
        AllocOp(buf=site),
        enter(),
        Branch(then=Seq([exit_()]), orelse=Seq([])),  # maybe-unbalanced
        exit_(),                                       # underflows on then-arm
    ])
    ir = WorkloadIR(name="synthetic", n_threads=1,
                    threads=[ThreadProgram(tid=0, body=body,
                                           buffers={"b": site})])
    result = analyze_ir(ir)
    kinds = {d.kind for d in result.defects}
    assert "underflow" in kinds


def test_interpreter_weak_operands_never_report():
    """A may-set exit (weak) over an absent entry must stay silent: the
    extractor's imprecision cannot invent a defect."""
    from repro.check.static.ir import (
        AbstractBuffer, BufRef, ClauseIR, WorkloadIR,
    )
    from repro.omp.mapping import MapKind

    a = AbstractBuffer(site="t0:L1.0", name="a", tid=0, lineno=1)
    b = AbstractBuffer(site="t0:L2.0", name="b", tid=0, lineno=2)
    weak = BufRef(sites=frozenset({a, b}))     # may-set: not strong
    body = Seq([
        AllocOp(buf=a),
        AllocOp(buf=b),
        ExitOp(clauses=(ClauseIR(weak, MapKind.RELEASE),)),
    ])
    ir = WorkloadIR(name="synthetic", n_threads=1,
                    threads=[ThreadProgram(tid=0, body=body,
                                           buffers={"a": a, "b": b})])
    assert analyze_ir(ir).defects == []


def test_synchronous_target_region_is_net_zero():
    from repro.check.static.ir import (
        AbstractBuffer, BufRef, ClauseIR, WorkloadIR,
    )
    from repro.omp.mapping import MapKind

    site = AbstractBuffer(site="t0:L1.0", name="b", tid=0, lineno=1)
    ref = BufRef(sites=frozenset({site}))
    body = Seq([
        AllocOp(buf=site),
        EnterOp(clauses=(ClauseIR(ref, MapKind.TO),)),
        TargetOp(kernel="k", clauses=(ClauseIR(ref, MapKind.ALLOC),)),
        ExitOp(clauses=(ClauseIR(ref, MapKind.RELEASE),)),
    ])
    ir = WorkloadIR(name="synthetic", n_threads=1,
                    threads=[ThreadProgram(tid=0, body=body,
                                           buffers={"b": site})])
    # balanced: the target's implicit enter/exit bracket cancels out
    assert analyze_ir(ir).defects == []


# ---------------------------------------------------------------------------
# acceptance: every clean bundled workload is statically clean
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_workload_has_zero_static_findings(name):
    report = analyze_named(name)
    assert report.aborted is None, f"{name}: {report.aborted}"
    assert report.findings == [], (
        f"{name}: false positives "
        f"{[(f.rule_id, f.buffer) for f in report.findings]}"
    )
    assert report.stats["static_ops"] > 0
