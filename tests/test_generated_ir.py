"""Generated map-op IR: the one structural walk, the CFG lowering and the
shared nowait wait rule, checked on programs nobody hand-wrote.

Programs are random nested ``Seq``/``Branch``/``Loop``/``ReturnNode``
trees (nesting depth <= 4) over nowait target regions, named, unknown
and never-launched waits, barriers and map-exits.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.check.static.cfg import build_cfg
from repro.check.static.interp import analyze_ir
from repro.check.static.ir import (
    AbstractBuffer,
    Branch,
    BufRef,
    ClauseIR,
    ExitOp,
    GlobalSyncOp,
    Loop,
    ReturnNode,
    Seq,
    TargetOp,
    ThreadProgram,
    WaitOp,
    WorkloadIR,
    walk,
)
from repro.check.static.race.mhp import _ThreadMHP
from repro.omp.mapping import MapKind

BUF = AbstractBuffer(site="t0:L1.0", name="b", tid=0, lineno=1, nbytes=64)
REF = BufRef(sites=frozenset({BUF}), display="b")
#: handle ids nowait regions launch; NEVER_LAUNCHED only ever shows up in
#: a wait
LAUNCHED = (1, 2, 3)
NEVER_LAUNCHED = 9

ops = st.one_of(
    st.sampled_from(LAUNCHED).map(lambda h: TargetOp(
        kernel="k", nowait=True, handle_id=h,
        clauses=(ClauseIR(REF, MapKind.TO),))),
    st.frozensets(st.sampled_from(LAUNCHED + (NEVER_LAUNCHED,)),
                  min_size=1, max_size=2).map(
        lambda ids: WaitOp(handle_ids=ids)),
    st.builds(lambda: WaitOp(unknown=True)),
    st.builds(lambda: GlobalSyncOp(name="barrier")),
    st.builds(lambda: ExitOp(clauses=(ClauseIR(REF, MapKind.RELEASE),))),
)


def _seqs(depth: int):
    items = ops | st.builds(ReturnNode)
    if depth > 0:
        inner = _seqs(depth - 1)
        items = (items
                 | st.builds(Branch, then=inner, orelse=inner)
                 | st.builds(Loop, body=inner,
                             min_trips=st.sampled_from((0, 1))))
    return st.lists(items, max_size=4).map(Seq)


programs = _seqs(4).map(lambda body: ThreadProgram(
    tid=0, body=body, buffers={BUF.site: BUF},
    handles={h: ((ClauseIR(REF, MapKind.FROM),), frozenset({BUF}))
             for h in LAUNCHED},
))


def _reference_walk(seq):
    out = []
    for item in seq.items:
        out.append(item)
        if isinstance(item, Branch):
            out += _reference_walk(item.then) + _reference_walk(item.orelse)
        elif isinstance(item, Loop):
            out += _reference_walk(item.body)
    return out


@settings(max_examples=150, deadline=None)
@given(programs)
def test_walk_is_the_recursive_preorder(program):
    got = list(walk(program.body))
    want = _reference_walk(program.body)
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


@settings(max_examples=150, deadline=None)
@given(st.lists(programs, min_size=1, max_size=2))
def test_every_op_lands_in_exactly_one_cfg_block(threads):
    ir = WorkloadIR(name="generated", n_threads=len(threads),
                    threads=threads)
    placed = Counter(id(op) for program in threads
                     for block in build_cfg(program).blocks
                     for op in block.ops)
    assert placed == Counter(id(op) for op in ir.ops())


@settings(max_examples=150, deadline=None)
@given(programs)
def test_mapflow_and_maprace_agree_on_what_is_in_flight_at_exit(program):
    # the in-flight transfer (launch adds a handle, a wait removes what
    # WaitOp.retires says) distributes over union, so MapFlow's per-path
    # states and MapRace's one joined state must cover the same handles
    ir = WorkloadIR(name="generated", n_threads=1, threads=[program])
    (summary,) = analyze_ir(ir).threads
    flow = frozenset().union(*(inflight for _, inflight in summary.exit_states))
    mhp = _ThreadMHP(program)
    at_exit = mhp._fixpoint().get(mhp.cfg.exit.bid)
    race = at_exit[1] if at_exit is not None else frozenset()
    assert flow == race
    assert NEVER_LAUNCHED not in flow
