"""Findings engine, report rendering, registry, and CLI wiring."""

import json
import os

import pytest

from repro.check import (
    RULES,
    Analysis,
    CheckReport,
    Finding,
    Severity,
    check_named,
    make_workload,
    merge_reports,
    render_rule_table,
    workload_names,
)
from repro.cli import main
from repro.core import RuntimeConfig
from repro.workloads.base import Fidelity, Workload

COPY = RuntimeConfig.COPY
USM = RuntimeConfig.UNIFIED_SHARED_MEMORY
IZC = RuntimeConfig.IMPLICIT_ZERO_COPY
EAGER = RuntimeConfig.EAGER_MAPS


# ---------------------------------------------------------------------------
# rule registry stability
# ---------------------------------------------------------------------------
def test_rule_ids_are_stable():
    """Rule ids are a public contract (CI greps for them): renumbering
    or dropping one is a breaking change."""
    assert set(RULES) == {
        "MC-P01", "MC-P02", "MC-P03", "MC-P04",
        "MC-S01", "MC-S02", "MC-S03", "MC-S04", "MC-S05",
        "MC-R01", "MC-R02",
        "MC-S10", "MC-S11", "MC-S12", "MC-P10",
        "MC-S20", "MC-S21", "MC-S22",
        "MC-W01", "MC-W02", "MC-W03", "MC-W04", "MC-W05",
        "MC-A01", "MC-A02", "MC-A03", "MC-A04",
    }


def test_rules_partition_across_the_four_analyses():
    by_analysis = {a: [] for a in Analysis}
    for rule in RULES.values():
        by_analysis[rule.analysis].append(rule.id)
    assert by_analysis[Analysis.LINT] == ["MC-P01", "MC-P02", "MC-P03", "MC-P04"]
    assert by_analysis[Analysis.SANITIZER] == [
        "MC-S01", "MC-S02", "MC-S03", "MC-S04", "MC-S05"
    ]
    assert by_analysis[Analysis.RACES] == ["MC-R01", "MC-R02"]
    assert by_analysis[Analysis.STATIC] == [
        "MC-S10", "MC-S11", "MC-S12", "MC-P10",
        "MC-S20", "MC-S21", "MC-S22",
    ]
    assert by_analysis[Analysis.PERF] == [
        "MC-W01", "MC-W02", "MC-W03", "MC-W04", "MC-W05"
    ]
    assert by_analysis[Analysis.PLACE] == [
        "MC-A01", "MC-A02", "MC-A03", "MC-A04"
    ]


def test_rule_table_lists_every_rule():
    table = render_rule_table()
    for rule_id in RULES:
        assert rule_id in table


# ---------------------------------------------------------------------------
# Finding / CheckReport
# ---------------------------------------------------------------------------
def _finding(**kw):
    defaults = dict(
        rule_id="MC-P01",
        buffer="ghost",
        message="kernel touches unmapped memory",
        workload="unit",
        breaks_under=(COPY, EAGER),
        passes_under=(USM, IZC),
        confirmed_by=(COPY,),
    )
    defaults.update(kw)
    return Finding(**defaults)


def test_finding_resolves_rule_and_severity():
    f = _finding()
    assert f.rule is RULES["MC-P01"]
    assert f.severity is Severity.ERROR
    assert f.breaks(COPY) and not f.breaks(USM)


def test_finding_to_dict_round_trips_configs():
    d = _finding().to_dict()
    assert d["rule"] == "MC-P01"
    assert d["breaks_under"] == [COPY.value, EAGER.value]
    assert d["passes_under"] == [USM.value, IZC.value]
    assert d["confirmed_by"] == [COPY.value]
    json.dumps(d)  # must be JSON-serializable as-is


def test_report_ok_and_sorting():
    clean = CheckReport(workload="w", fidelity="test")
    assert clean.ok
    warn = _finding(rule_id="MC-S02", buffer="b")
    err = _finding(rule_id="MC-S01", buffer="a")
    rep = CheckReport(workload="w", fidelity="test", findings=[warn, err])
    assert not rep.ok
    # errors sort before warnings regardless of insertion order
    assert [f.rule_id for f in rep.sorted_findings()] == ["MC-S01", "MC-S02"]
    assert set(rep.by_rule()) == {"MC-S01", "MC-S02"}


def test_report_aborted_is_not_ok_even_without_findings():
    rep = CheckReport(workload="w", fidelity="test", aborted="Boom: x")
    assert not rep.ok
    assert "ABORTED" in rep.render()


def test_render_marks_confirmed_configs():
    rep = CheckReport(
        workload="w", fidelity="test", findings=[_finding()],
        config_outcomes={
            IZC: "ok (recording run)",
            COPY: "crash: GpuMemoryError: boom",
            USM: "ok",
            EAGER: "ok",
        },
    )
    text = rep.render()
    assert "MC-P01" in text
    assert f"{COPY.label}=break!" in text    # confirmed -> '!'
    assert f"{EAGER.label}=break" in text    # predicted but not confirmed
    assert f"{USM.label}=ok" in text
    assert "crash: GpuMemoryError" in text


def test_to_json_parses_back():
    rep = CheckReport(workload="w", fidelity="test", findings=[_finding()])
    data = json.loads(rep.to_json())
    assert data["workload"] == "w"
    assert data["ok"] is False
    assert data["findings"][0]["rule"] == "MC-P01"


def test_merge_reports_summary():
    clean = CheckReport(workload="good", fidelity="test")
    bad = CheckReport(workload="bad", fidelity="test", findings=[_finding()])
    text = merge_reports([clean, bad])
    assert "CLEAN" in text and "FINDINGS" in text


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_registry_builds_every_workload():
    names = workload_names()
    assert "qmcpack" in names and "triad" in names
    for name in names:
        w = make_workload(name, Fidelity.TEST)
        assert w.n_threads >= 1


def test_registry_rejects_unknown_names():
    with pytest.raises(KeyError):
        make_workload("definitely-not-a-workload", Fidelity.TEST)


# ---------------------------------------------------------------------------
# clean bundled workloads (acceptance: qmcpack has zero findings)
# ---------------------------------------------------------------------------
def test_qmcpack_is_clean_including_differential_runs():
    report = check_named("qmcpack", Fidelity.TEST)
    assert report.findings == []
    assert report.aborted is None
    assert report.ok
    for config, outcome in report.config_outcomes.items():
        assert outcome.startswith("ok"), f"{config}: {outcome}"


def test_triad_is_clean_without_cross_check():
    report = check_named("triad", Fidelity.TEST, cross_check=False)
    assert report.ok
    assert report.config_outcomes == {}
    assert report.stats.get("kernels", 0) > 0


# ---------------------------------------------------------------------------
# MC-P01 dedup: repeated offenders land in Finding.related, not message
# ---------------------------------------------------------------------------
class _RepeatOffenderWorkload(Workload):
    """Three kernels dereference the same unmapped buffer."""

    name = "unit-repeat-offender"
    n_threads = 1

    def __init__(self):
        super().__init__(Fidelity.TEST)

    def make_body(self):
        import numpy as np

        from repro.memory import MIB

        def body(th, tid):
            ghost = yield from th.alloc("ghost", MIB, payload=np.ones(4))
            for k in range(3):
                yield from th.target(f"stray{k}", 10.0, touches=[ghost])

        return body


def test_missing_map_repeat_offenders_collapse_into_related():
    from repro.check import check_workload

    report = check_workload(_RepeatOffenderWorkload, cross_check=False)
    p01 = [f for f in report.findings if f.rule_id == "MC-P01"]
    assert len(p01) == 1                   # one finding per buffer
    [f] = p01
    # the first offender owns the message; the others are structured refs
    assert "'stray0'" in f.message
    assert "stray1" not in f.message and "stray2" not in f.message
    assert len(f.related) == 2
    assert any("stray1" in r for r in f.related)
    assert any("stray2" in r for r in f.related)
    # related refs are deduplicated and survive serialization + rendering
    assert f.to_dict()["related"] == list(f.related)
    assert "2 more site(s)" in report.render()


# ---------------------------------------------------------------------------
# --jobs determinism: parallel and serial `check all` are byte-identical
# ---------------------------------------------------------------------------
def test_check_all_parallel_output_is_byte_identical_to_serial():
    from repro.check import check_all

    serial = check_all(Fidelity.TEST, cross_check=False, static=True)
    parallel = check_all(Fidelity.TEST, cross_check=False, static=True,
                         jobs=4)
    assert [r.render() for r in serial] == [r.render() for r in parallel]
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]


def test_check_all_jobs_zero_means_one_worker_per_cpu(monkeypatch):
    """``--jobs 0`` resolves like the figure commands' (one worker per
    CPU); a pool that cannot start falls back to the serial reports."""
    import concurrent.futures

    import repro.check.runner as runner

    asked = []

    class _NoPool:
        def __init__(self, max_workers):
            asked.append(max_workers)
            raise OSError("no process pool here")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    with pytest.warns(RuntimeWarning, match="running serially"):
        fanned = runner.check_all(jobs=0, static=True, dynamic=False)
    assert asked == [2]
    serial = runner.check_all(jobs=1, static=True, dynamic=False)
    assert [r.to_json() for r in fanned] == [r.to_json() for r in serial]
    with pytest.raises(ValueError):
        runner.check_all(jobs=-1, static=True, dynamic=False)


def test_finding_sort_key_is_total_and_stable():
    a = _finding(rule_id="MC-S01", buffer="a", time_us=2.0, tid=1)
    b = _finding(rule_id="MC-S01", buffer="a", time_us=1.0, tid=0)
    c = _finding(rule_id="MC-P01", buffer="z")
    ordered = sorted([a, b, c], key=Finding.sort_key)
    assert ordered == [c, b, a]
    # reversing the input changes nothing: the key is total
    assert sorted([c, b, a], key=Finding.sort_key) == ordered


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_check_qmcpack_exits_zero(capsys):
    assert main(["check", "qmcpack", "--no-cross"]) == 0
    out = capsys.readouterr().out
    assert "no findings" in out


def test_cli_check_json_output(capsys):
    assert main(["check", "triad", "--no-cross", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["ok"] is True


def test_cli_check_rules_table(capsys):
    assert main(["check", "--rules"]) == 0
    assert "MC-R02" in capsys.readouterr().out


def test_cli_check_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        main(["check", "no-such-workload"])


def test_cli_check_static_no_sim_is_clean_and_simulation_free(capsys):
    from repro.check.static.differential import _forbid_simulation

    with _forbid_simulation():             # any simulation would raise
        assert main(["check", "triad", "--static", "--no-sim"]) == 0
    out = capsys.readouterr().out
    assert "static_ops" in out


def test_cli_no_sim_requires_static():
    with pytest.raises(SystemExit):
        main(["check", "triad", "--no-sim"])


def test_cli_check_writes_sarif(tmp_path, capsys):
    path = tmp_path / "check.sarif"
    assert main(["check", "triad", "--static", "--no-sim",
                 "--sarif", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["version"] == "2.1.0"
    assert {r["id"] for r in data["runs"][0]["tool"]["driver"]["rules"]} == set(RULES)
