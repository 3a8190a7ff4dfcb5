"""``python -m repro bench`` harness: schema, invariants, CLI gating.

One quick bench run is shared across the module (it executes real
simulations); the CLI exit-code tests stub ``write_bench`` so they stay
cheap.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.bench import (
    BENCH_TIERS,
    BenchEntry,
    BenchReport,
    engine_differential,
    pagetable_parity,
    run_bench,
    write_bench,
)

ENTRY_KEYS = {"name", "wall_s", "sim_events", "events_per_s", "engine"}


@pytest.fixture(scope="module")
def quick_bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    path = root / "BENCH.json"
    history = root / "history"
    report = write_bench(
        str(path), quick=True, jobs=2, history_dir=str(history)
    )
    return report, path, history


def test_bench_json_written_with_schema(quick_bench):
    report, path, _ = quick_bench
    data = json.loads(path.read_text())
    assert data["schema"] == "repro-bench-v4"
    assert data["quick"] is True
    assert data["jobs"] == 2
    assert data["only"] is None
    assert data["generated_utc"]
    assert data["entries"], "bench must record at least one measurement"
    for entry in data["entries"]:
        assert set(entry) == ENTRY_KEYS
        assert entry["wall_s"] > 0
        assert entry["sim_events"] > 0
        assert entry["events_per_s"] > 0
        assert entry["engine"] in ("fast", "reference", "n/a")


def test_bench_history_entry_written(quick_bench):
    report, path, history = quick_bench
    files = sorted(history.glob("bench-*.json"))
    assert len(files) == 1
    assert json.loads(files[0].read_text()) == json.loads(path.read_text())


def test_bench_covers_all_tiers(quick_bench):
    report, _, _ = quick_bench
    names = [e.name for e in report.entries]
    assert any(n.startswith("scheduler_fused_micro") for n in names)
    assert any(n.startswith("scheduler_reference_micro") for n in names)
    assert any(n.startswith("pagetable_runs_micro") for n in names)
    assert any(n.startswith("pagetable_flat_micro") for n in names)
    assert any(n.startswith("qmcpack_") for n in names)
    assert any("serial" in n for n in names)
    assert any("jobs" in n for n in names)
    assert "fig3_cache_cold" in names
    assert "fig3_cache_warm" in names
    for phase in ("extract", "interp", "cost", "race", "fix"):
        assert f"static_{phase}_corpus" in names
    assert "static_check_all_e2e" in names


def test_bench_equivalence_invariants_hold(quick_bench):
    report, _, _ = quick_bench
    assert report.equivalence == {
        "scheduler_micro_identical": True,
        "scheduler_differential": True,
        "pagetable_parity": True,
        "parallel_summary_identical": True,
        "parallel_ledgers_identical": True,
        "cache_warm_zero_cells": True,
        "cache_values_identical": True,
        "static_fix_differential": True,
    }
    assert report.ok


def test_bench_only_filter_restricts_tiers():
    report = run_bench(quick=True, only="pagetable")
    names = [e.name for e in report.entries]
    assert names and all(n.startswith("pagetable_") for n in names)
    assert set(report.equivalence) == {"pagetable_parity"}


def test_bench_only_rejects_unknown_tier():
    with pytest.raises(ValueError, match="unknown bench tier"):
        run_bench(quick=True, only="nonsense")
    assert set(BENCH_TIERS) == {
        "scheduler", "pagetable", "meso", "static",
    }


def test_bench_only_static_tier():
    report = run_bench(quick=True, only="static")
    names = [e.name for e in report.entries]
    assert names and all(n.startswith("static_") for n in names)
    assert set(report.equivalence) == {"static_fix_differential"}
    assert report.ok


def test_bench_records_speedups(quick_bench):
    report, _, _ = quick_bench
    # timing is recorded but never gated; still, the replacements should
    # not be slower than the engines they replaced
    assert report.speedups["pagetable_runs_vs_flat"] > 1.0
    assert report.speedups["scheduler_fused_vs_reference"] > 1.0
    assert report.speedups["cache_warm_vs_cold"] > 1.0
    assert "ratio_parallel_vs_serial" in report.speedups


def test_engine_differential_smoke():
    assert engine_differential(seed=23, quick=True)


def test_bench_render_mentions_invariants(quick_bench):
    report, _, _ = quick_bench
    text = report.render()
    assert "equivalence pagetable_parity: PASS" in text
    assert "equivalence scheduler_differential: PASS" in text
    assert "speedup pagetable_runs_vs_flat" in text
    assert "speedup scheduler_fused_vs_reference" in text


def test_report_ok_false_when_any_invariant_fails():
    report = BenchReport(quick=True, jobs=1)
    report.equivalence = {"a": True, "b": False}
    assert not report.ok


def test_entry_to_dict_roundtrip():
    e = BenchEntry(
        name="x", wall_s=1.5, sim_events=30, events_per_s=20.0,
        engine="reference",
    )
    assert e.to_dict() == {
        "name": "x",
        "wall_s": 1.5,
        "sim_events": 30,
        "events_per_s": 20.0,
        "engine": "reference",
    }


def test_pagetable_parity_smoke():
    assert pagetable_parity(seed=11, rounds=100)


def _stub_write_bench(ok: bool):
    def stub(path, *, quick=False, jobs=4, progress=None, **kwargs):
        report = BenchReport(quick=quick, jobs=jobs)
        report.equivalence = {"stub": ok}
        report.write_json(path)
        return report

    return stub


def test_cli_bench_exits_zero_on_pass(monkeypatch, tmp_path):
    import repro.experiments.bench as bench_mod

    monkeypatch.setattr(bench_mod, "write_bench", _stub_write_bench(True))
    path = tmp_path / "BENCH.json"
    assert main(["bench", "--quick", "--bench-json", str(path)]) == 0
    assert path.exists()


def test_cli_bench_exits_one_on_equivalence_failure(monkeypatch, tmp_path):
    import repro.experiments.bench as bench_mod

    monkeypatch.setattr(bench_mod, "write_bench", _stub_write_bench(False))
    path = tmp_path / "BENCH.json"
    assert main(["bench", "--quick", "--bench-json", str(path)]) == 1
