"""MapCost: symbolic cost prediction, perf lint (MC-W), and baselines.

The acceptance-critical contract lives in the parametrized differential
below: for every registry workload under all four configurations the
statically predicted HSA call counts, map-op counts and kernel launches
are bit-exact against simulated telemetry, and every bounded counter
(copy bytes, prefaulted/faulted pages, shadow traffic) lands inside the
predicted interval — with ``ApuSystem`` poisoned during prediction.
"""

import functools
import json

import numpy as np
import pytest

from repro.check import (
    apply_baseline,
    check_workload,
    fingerprint,
    load_baseline,
    make_workload,
    to_sarif,
    workload_names,
    write_baseline,
)
from repro.check.corpus import PERF_CORPUS
from repro.check.static.cost import (
    EXACT_KEYS,
    MEMMGR_THRESHOLD,
    PAGE_SIZE,
    Interval,
    cost_differential,
    perf_report,
    predict_costs,
)
from repro.check.static.cost.differential import CounterCell, measure_costs
from repro.check.static.differential import (
    _forbid_simulation,
    _SimulationForbidden,
)
from repro.check.static.extract import UNROLL_LIMIT, extract_workload
from repro.check.static.ir import (
    AbstractBuffer,
    AllocOp,
    BufRef,
    ClauseIR,
    EnterOp,
    ExitOp,
    Loop,
    Seq,
    TargetOp,
    ThreadProgram,
    WorkloadIR,
)
from repro.cli import main
from repro.core import RuntimeConfig
from repro.core.config import ALL_CONFIGS
from repro.core.params import CostModel
from repro.memory.layout import MIB
from repro.omp.mapping import MapClause, MapKind
from repro.workloads.base import Fidelity, Workload

_CONFIG_IDS = [c.value for c in ALL_CONFIGS]


# ---------------------------------------------------------------------------
# predicted-vs-measured differential: every registry workload x 4 configs
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def _sweep():
    """One full differential sweep, shared by all parametrized cells."""
    return {(c.workload, c.config): c for c in cost_differential().cells}


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=_CONFIG_IDS)
@pytest.mark.parametrize("name", sorted(workload_names()))
def test_cost_differential_is_exact(name, config):
    cell = _sweep()[(name, config)]
    assert cell.ok, cell.render()
    # the exact tier really is singleton intervals, not wide ones that
    # happen to contain the measurement
    for key in EXACT_KEYS:
        assert cell.prediction.interval(key).is_exact, (name, config, key)


def test_static_model_prices_the_simulated_deployment():
    """The walker's page size and MemoryManager threshold are the default
    simulator's, and its bucket model assumes the memory manager is on."""
    cost = CostModel()
    assert PAGE_SIZE == cost.page_size
    assert MEMMGR_THRESHOLD == cost.memmgr_threshold_bytes
    assert cost.memmgr_enabled is True


def test_prediction_phase_is_simulation_free():
    """predict_costs never constructs a simulator — the poison guard
    stays armed across extraction and all four config walks."""
    with _forbid_simulation():
        ir = extract_workload(make_workload("triad", Fidelity.TEST),
                              name="triad")
        for config in ALL_CONFIGS:
            p = predict_costs(ir, config)
            assert p.counters
    # sanity: the guard would have tripped on any simulation attempt
    from repro.core.system import ApuSystem

    with _forbid_simulation(), pytest.raises(_SimulationForbidden):
        ApuSystem(seed=0)


# ---------------------------------------------------------------------------
# symbolic trip counts: walker semantics on hand-built IR
# ---------------------------------------------------------------------------
def _unit_ir(loop: Loop) -> WorkloadIR:
    """alloc(buf) ; enter(to: buf) ; <loop over kernel(buf)> ; exit(from)"""
    buf = AbstractBuffer(site="t0:L1.0", name="buf", tid=0, nbytes=MIB)
    ref = BufRef(sites=frozenset([buf]), display="buf")
    body = Seq([
        AllocOp(buf=buf),
        EnterOp(clauses=(ClauseIR(buf=ref, kind=MapKind.TO),)),
        loop,
        ExitOp(clauses=(ClauseIR(buf=ref, kind=MapKind.FROM),)),
    ])
    prog = ThreadProgram(tid=0, body=body, buffers={buf.site: buf})
    return WorkloadIR(name="unit", n_threads=1, threads=[prog])


def _kernel_loop(**kw) -> Loop:
    buf = AbstractBuffer(site="t0:L1.0", name="buf", tid=0, nbytes=MIB)
    ref = BufRef(sites=frozenset([buf]), display="buf")
    return Loop(body=Seq([TargetOp(kernel="k", touches=(ref,))]), **kw)


def test_walker_resolved_trip_count_is_exact():
    ir = _unit_ir(_kernel_loop(trips=100, min_trips=1, kind="for"))
    p = predict_costs(ir, RuntimeConfig.COPY, include_init=False)
    assert p.interval("kernels") == Interval.exact(100)


def test_walker_unresolved_for_guarantees_one_trip():
    ir = _unit_ir(_kernel_loop(trips=None, min_trips=1, kind="for"))
    p = predict_costs(ir, RuntimeConfig.COPY, include_init=False)
    iv = p.interval("kernels")
    assert iv.lo == 1 and iv.hi is None


def test_walker_while_fallback_admits_zero_trips():
    ir = _unit_ir(_kernel_loop(trips=None, min_trips=0, kind="while"))
    p = predict_costs(ir, RuntimeConfig.COPY, include_init=False)
    iv = p.interval("kernels")
    assert iv.lo == 0 and iv.hi is None


# ---------------------------------------------------------------------------
# symbolic trip counts: extraction folding on real source
# ---------------------------------------------------------------------------
class _CountedLoopWorkload(Workload):
    """40 kernel launches behind a foldable range() beyond UNROLL_LIMIT."""

    name = "unit-counted-loop"

    def __init__(self):
        super().__init__(Fidelity.TEST)

    def make_body(self):
        outputs = self.outputs

        def body(th, tid):
            data = yield from th.alloc("data", MIB, payload=np.ones(8))
            yield from th.target_enter_data([MapClause(data, MapKind.TO)])
            for _ in range(40):
                yield from th.target("k", 10.0, touches=[data])
            yield from th.target_exit_data([MapClause(data, MapKind.FROM)])
            outputs.put("done", 1.0)

        return body


class _UnresolvedLoopsWorkload(Workload):
    """A ``while`` the extractor cannot bound, feeding a ``for`` over a
    list whose length only partially folds (built inside that while)."""

    name = "unit-unresolved-loops"

    def __init__(self):
        super().__init__(Fidelity.TEST)

    def make_body(self):
        outputs = self.outputs

        def body(th, tid):
            data = yield from th.alloc("data", MIB, payload=np.ones(8))
            yield from th.target_enter_data([MapClause(data, MapKind.TO)])
            chunks = []
            while len(chunks) < 2:
                chunks.append(1)
            for _ in chunks:
                yield from th.target("k", 10.0, touches=[data])
            yield from th.target_exit_data([MapClause(data, MapKind.FROM)])
            outputs.put("done", 1.0)

        return body


def _loops_of(seq):
    for item in seq.items:
        if isinstance(item, Loop):
            yield item
            yield from _loops_of(item.body)


def test_extraction_folds_range_beyond_unroll_limit():
    assert 40 > UNROLL_LIMIT
    ir = extract_workload(_CountedLoopWorkload(), name="unit-counted-loop")
    loops = list(_loops_of(ir.thread(0).body))
    assert [(lp.kind, lp.trips, lp.min_trips) for lp in loops] == [
        ("for", 40, 1)
    ]


def test_extraction_while_and_partially_resolved_for():
    ir = extract_workload(_UnresolvedLoopsWorkload(),
                          name="unit-unresolved-loops")
    loops = list(_loops_of(ir.thread(0).body))
    kinds = {lp.kind: lp for lp in loops}
    assert set(kinds) == {"while", "for"}
    assert kinds["while"].min_trips == 0 and kinds["while"].trips is None
    # the for's iterable came out of the abstracted while: length unknown
    assert kinds["for"].min_trips == 1 and kinds["for"].trips is None


def _cell(factory, config):
    ir = extract_workload(factory(), name=factory.name)
    pred = predict_costs(ir, config)
    measured = measure_costs(factory(), config)
    return CounterCell(
        workload=factory.name, config=config,
        prediction=pred, measured=measured,
    ).check()


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=_CONFIG_IDS)
def test_counted_loop_prediction_is_exact_end_to_end(config):
    cell = _cell(_CountedLoopWorkload, config)
    assert cell.ok, cell.render()
    assert cell.prediction.interval("kernels") == Interval.exact(40)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=_CONFIG_IDS)
def test_unresolved_loops_prediction_still_brackets_measurement(config):
    """No exactness possible here — but the interval must be sound."""
    ir = extract_workload(_UnresolvedLoopsWorkload(),
                          name="unit-unresolved-loops")
    pred = predict_costs(ir, config)
    measured = measure_costs(_UnresolvedLoopsWorkload(), config)
    iv = pred.interval("kernels")
    assert iv.hi is None                      # widened, not guessed
    assert iv.contains(measured["kernels"])   # 2 trips at runtime
    for key in ("map_enters", "map_exits", "h2d_bytes", "d2h_bytes"):
        assert pred.interval(key).contains(measured[key]), key


# ---------------------------------------------------------------------------
# MC-W perf lint: zero false positives on the registry, one hit per
# PERF_CORPUS pattern, and the patterns stay dynamically clean
# ---------------------------------------------------------------------------
_EXPECTED_RULE = {
    "map-churn": "MC-W01",
    "redundant-map": "MC-W02",
    "fault-storm": "MC-W03",
    "global-indirection": "MC-W04",
    "noop-update": "MC-W05",
}


@pytest.mark.parametrize("name", sorted(workload_names()))
def test_registry_workloads_have_no_perf_findings(name):
    report = perf_report(make_workload(name, Fidelity.TEST), name)
    assert report.aborted is None, report.aborted
    assert report.findings == [], [f.rule_id for f in report.findings]


@pytest.mark.parametrize("short", sorted(PERF_CORPUS))
def test_perf_corpus_triggers_its_rule(short):
    w = PERF_CORPUS[short]()
    report = perf_report(w, w.name)
    fired = {f.rule_id for f in report.findings}
    assert _EXPECTED_RULE[short] in fired, (short, fired)


@pytest.mark.parametrize("short", sorted(PERF_CORPUS))
def test_perf_corpus_is_dynamically_clean(short):
    report = check_workload(PERF_CORPUS[short], cross_check=False)
    assert report.aborted is None, report.aborted
    assert report.findings == [], [f.rule_id for f in report.findings]


def test_perf_findings_carry_derived_matrices():
    w = PERF_CORPUS["map-churn"]()
    report = perf_report(w, w.name)
    [f] = [f for f in report.findings if f.rule_id == "MC-W01"]
    assert f.breaks_under == (RuntimeConfig.EAGER_MAPS,)
    assert set(f.passes_under) == {
        RuntimeConfig.COPY,
        RuntimeConfig.UNIFIED_SHARED_MEMORY,
        RuntimeConfig.IMPLICIT_ZERO_COPY,
    }


# ---------------------------------------------------------------------------
# baselines: write -> load -> apply round trip, SARIF suppressions
# ---------------------------------------------------------------------------
def test_baseline_round_trip_suppresses_known_findings(tmp_path):
    w = PERF_CORPUS["noop-update"]()
    report = perf_report(w, w.name)
    assert report.findings and not report.ok
    path = tmp_path / "baseline.json"
    n = write_baseline([report], str(path))
    assert n == len({fingerprint(f) for f in report.findings})

    fresh = perf_report(PERF_CORPUS["noop-update"](), w.name)
    stats = apply_baseline([fresh], load_baseline(str(path)))
    assert stats["suppressed"] == stats["findings"] == len(fresh.findings)
    assert stats["stale_fingerprints"] == 0
    assert all(f.suppressed for f in fresh.findings)
    assert fresh.ok                     # suppressed findings don't fail
    assert "suppressed" in fresh.render()

    sarif = to_sarif([fresh])
    results = sarif["runs"][0]["results"]
    assert results
    for r in results:
        assert r["suppressions"][0]["kind"] == "external"


def test_baseline_counts_stale_fingerprints():
    report = perf_report(make_workload("triad", Fidelity.TEST), "triad")
    stats = apply_baseline([report], {"MC-W99:ghost:never"})
    assert stats == {
        "findings": 0, "suppressed": 0, "stale_fingerprints": 1,
    }


def test_load_baseline_rejects_non_baseline_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"not": "a baseline"}\n')
    with pytest.raises(ValueError):
        load_baseline(str(path))


# ---------------------------------------------------------------------------
# CLI wiring: --perf / --differential cost / --baseline / --write-baseline
# ---------------------------------------------------------------------------
def test_cli_check_perf_no_sim_is_simulation_free(capsys):
    with _forbid_simulation():
        assert main(["check", "triad", "--perf", "--no-sim"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_differential_cost_writes_exact_cells(tmp_path, capsys):
    path = tmp_path / "differential.json"
    assert main(["check", "triad", "--differential", "cost", "--json",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())["cost"]
    assert data["ok"] is True
    assert len(data["cells"]) == len(ALL_CONFIGS)
    for cell in data["cells"]:
        assert cell["workload"] == "triad"
        assert cell["mismatches"] == []


@pytest.mark.parametrize("kind", ["perf", "race", "place"])
def test_cli_rejects_the_removed_differential_json_flags(kind, capsys):
    """The per-differential JSON flags gave way to --differential."""
    flag = f"--{kind}-json"
    with pytest.raises(SystemExit) as exc:
        main(["check", "triad", flag, "out.json"])
    assert exc.value.code == 2                 # argparse usage error
    assert flag in capsys.readouterr().err


def test_cli_baseline_flags_round_trip(tmp_path, capsys):
    base = tmp_path / "base.json"
    assert main(["check", "triad", "--perf", "--no-sim",
                 "--write-baseline", str(base)]) == 0
    assert json.loads(base.read_text())["fingerprints"] == []  # clean
    assert main(["check", "triad", "--perf", "--no-sim",
                 "--baseline", str(base)]) == 0
    capsys.readouterr()
