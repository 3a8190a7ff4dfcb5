"""Static/dynamic differential harness (the tentpole acceptance gate).

Two sides, both load-bearing:

* recall — on the faulty corpus, every dynamic finding whose defect
  family has a static counterpart rule is matched by a static finding
  with the same family and buffer;
* precision — on the 11 clean registry workloads, MapFlow and MapRace
  emit zero findings, and do so without instantiating
  :class:`ApuSystem` (the harness poisons the constructor, so one
  simulation event fails the test loudly).

Plus the static pipeline's extract-once contract.
"""

import functools
import sys

import pytest

from repro.check import check_named, workload_names
from repro.check.corpus import CORPUS, LeakWorkload, NowaitResultRaceWorkload
from repro.check.findings import Finding
from repro.check.registry import (
    RULE_FAMILIES,
    dynamic_counterparts,
    static_counterparts,
)
from repro.check.static import static_dynamic_differential, static_report
from repro.check.static.differential import _forbid_simulation
from repro.check.static.fix import remediate


@functools.lru_cache(maxsize=1)
def _full():
    """One full differential run, shared by the tests that inspect it."""
    return static_dynamic_differential()


def test_full_differential_passes():
    result = _full()
    assert result.ok, result.render()
    # every in-scope dynamic rule family actually appears: the corpus
    # exercises refcount, leak, inflight-unmap and missing-map
    families = {r.family for r in result.records}
    assert families == {
        "refcount", "leak", "inflight-unmap", "missing-map",
        # MapRace pulled the dynamic race detector into static scope:
        # MC-R01/MC-R02 findings now have MC-S21/MC-S20 counterparts
        "map-race", "host-write-race",
    }
    # and each record names the static rule that answered it
    assert {r.static_rule for r in result.records} == {
        "MC-S10", "MC-S12", "MC-S11", "MC-P10", "MC-S21", "MC-S20"
    }


def test_differential_clean_side_runs_zero_simulation():
    """The poison is armed during the clean sweep; a passing result is
    the proof no ApuSystem was built on the static path."""
    result = static_dynamic_differential(corpus=False)
    assert result.ok, result.render()
    assert result.records == []            # corpus side skipped


def test_forbid_simulation_poison_actually_fires():
    """A plain system and a multi-socket card both trip the poison."""
    from repro.core.system import ApuSystem
    from repro.multisocket import ApuCard

    for build in (ApuSystem, ApuCard):
        with _forbid_simulation(), pytest.raises(
                AssertionError, match="instantiated a simulation Environment"):
            build()
        # and is restored afterwards
        build()


def test_static_analysis_works_under_the_poison():
    with _forbid_simulation():
        report = static_report(LeakWorkload(), "faulty-leak")
    assert [f.rule_id for f in report.findings] == ["MC-S12"]


def test_every_static_rule_has_a_dynamic_counterpart_and_vice_versa():
    for static_rule in ("MC-S10", "MC-S11", "MC-S12", "MC-P10",
                        "MC-S20", "MC-S21"):
        assert dynamic_counterparts(static_rule), static_rule
    # the race families are now *in* scope: the dynamic detectors have
    # static twins, so the differential demands a static match for them
    assert static_counterparts("MC-R01") == ("MC-S21",)
    assert static_counterparts("MC-R02") == ("MC-S20",)
    # MC-S22 is static-only: no dynamic rule observes the missing wait
    # (the dynamic side sees it as a leak/teardown symptom instead)
    assert dynamic_counterparts("MC-S22") == ()
    assert static_counterparts("MC-S22") == ()
    # families wholly out of static scope stay out
    for family in ("stale-global", "missing-from", "config-divergence",
                   "always-misuse"):
        for rid in RULE_FAMILIES[family]:
            assert static_counterparts(rid) == ()


def test_corpus_is_complete_and_importable():
    # one entry per canonical defect; all constructible with no args
    assert len(CORPUS) == 15
    for name, cls in CORPUS.items():
        w = cls()
        assert w.name.startswith("faulty-"), name


def test_flow_differential_answers_every_corpus_race():
    """Race recall: each dynamic race on the corpus is matched by its
    MapRace twin (same family and buffer)."""
    races = {
        (r.corpus_name, r.dynamic_rule, r.buffer, r.static_rule)
        for r in _full().records
        if r.family in ("map-race", "host-write-race")
    }
    assert races == {
        ("map-race", "MC-R01", "contested", "MC-S21"),
        ("exit-exit-race", "MC-R01", "torndown", "MC-S21"),
        ("host-write-race", "MC-R02", "shared_in", "MC-S20"),
        ("cross-thread-host-write", "MC-R02", "hotbuf", "MC-S20"),
    }
    assert len(_full().records) == 12
    d = _full().to_dict()
    assert d["ok"] and len(d["records"]) == 12
    assert d["false_positives"] == {} and d["aborts"] == {}


def test_race_finding_on_a_clean_workload_fails_the_differential(
        monkeypatch):
    """Race precision: the clean sweep counts a race finding like any
    other static finding."""
    import repro.check.static.race.rules as race_rules

    def one_race(ir):
        return [Finding(
            rule_id="MC-S21", buffer="phantom", workload=ir.name,
            message="injected race",
        )]

    monkeypatch.setattr(race_rules, "race_findings", one_race)
    result = static_dynamic_differential(corpus=False)
    assert not result.ok
    assert sorted(result.false_positives) == sorted(workload_names())
    for findings in result.false_positives.values():
        assert [f.rule_id for f in findings] == ["MC-S21"]


@pytest.fixture
def extractions(monkeypatch):
    """Count every ``extract_workload`` call, wherever it is imported."""
    from repro.check.static import extract

    real = extract.extract_workload
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("repro")
                and getattr(mod, "extract_workload", None) is real):
            monkeypatch.setattr(mod, "extract_workload", counting)
    return calls


def test_static_check_extracts_once(extractions):
    report = check_named("triad", static=True, perf=True, dynamic=False)
    assert report.ok
    assert len(extractions) == 1


def test_remediation_extracts_once_plus_once_per_candidate(extractions):
    res = remediate(NowaitResultRaceWorkload, dynamic=False)
    assert len(res.fixes) == 2              # two rounds, one fix each
    candidates = len(res.fixes) + len(res.rejected)
    assert len(extractions) == 1 + candidates
