"""Registry snapshot: rule ids, severities, analyses, families, and the
per-configuration applicability matrices are a frozen public contract.

Any diff here is a deliberate, reviewed change to MapCheck's output
format — CI configs, SARIF consumers and the paper-reproduction docs all
key off these exact values."""

import pytest

from repro.check import (
    RULES,
    RULE_FAMILIES,
    Analysis,
    Severity,
    check_workload,
)
from repro.check.corpus import CORPUS, PERF_CORPUS
from repro.check.static.place import PlaceSpec
from repro.check.static.rules import analyze_workload
from repro.core import RuntimeConfig

COPY = RuntimeConfig.COPY
USM = RuntimeConfig.UNIFIED_SHARED_MEMORY
IZC = RuntimeConfig.IMPLICIT_ZERO_COPY
EAGER = RuntimeConfig.EAGER_MAPS
ALL = (COPY, USM, IZC, EAGER)

#: the frozen snapshot: id -> (analysis, severity, family)
_SNAPSHOT = {
    "MC-P01": (Analysis.LINT, Severity.ERROR, "missing-map"),
    "MC-P02": (Analysis.LINT, Severity.ERROR, "missing-from"),
    "MC-P03": (Analysis.LINT, Severity.ERROR, "stale-global"),
    "MC-P04": (Analysis.LINT, Severity.ERROR, "config-divergence"),
    "MC-S01": (Analysis.SANITIZER, Severity.ERROR, "refcount"),
    "MC-S02": (Analysis.SANITIZER, Severity.WARNING, "leak"),
    "MC-S03": (Analysis.SANITIZER, Severity.ERROR, "refcount"),
    "MC-S04": (Analysis.SANITIZER, Severity.ERROR, "inflight-unmap"),
    "MC-S05": (Analysis.SANITIZER, Severity.ERROR, "always-misuse"),
    "MC-R01": (Analysis.RACES, Severity.WARNING, "map-race"),
    "MC-R02": (Analysis.RACES, Severity.ERROR, "host-write-race"),
    "MC-S10": (Analysis.STATIC, Severity.ERROR, "refcount"),
    "MC-S11": (Analysis.STATIC, Severity.ERROR, "inflight-unmap"),
    "MC-S12": (Analysis.STATIC, Severity.WARNING, "leak"),
    "MC-P10": (Analysis.STATIC, Severity.ERROR, "missing-map"),
    "MC-S20": (Analysis.STATIC, Severity.ERROR, "host-write-race"),
    "MC-S21": (Analysis.STATIC, Severity.WARNING, "map-race"),
    "MC-S22": (Analysis.STATIC, Severity.ERROR, "nowait-result"),
    "MC-W01": (Analysis.PERF, Severity.WARNING, "perf-map-churn"),
    "MC-W02": (Analysis.PERF, Severity.WARNING, "perf-redundant-map"),
    "MC-W03": (Analysis.PERF, Severity.WARNING, "perf-fault-storm"),
    "MC-W04": (Analysis.PERF, Severity.WARNING, "perf-global-indirection"),
    "MC-W05": (Analysis.PERF, Severity.WARNING, "perf-noop-update"),
    "MC-A01": (Analysis.PLACE, Severity.WARNING, "place-remote-fault"),
    "MC-A02": (Analysis.PLACE, Severity.WARNING, "place-map-churn"),
    "MC-A03": (Analysis.PLACE, Severity.WARNING, "place-hot-buffer"),
    "MC-A04": (Analysis.PLACE, Severity.WARNING, "place-shadow-copy"),
}

#: frozen (breaks_under, passes_under) matrices; None = finding-dependent
_MATRICES = {
    "MC-P01": ((COPY, EAGER), (USM, IZC)),
    "MC-P02": ((COPY,), (USM, IZC, EAGER)),
    "MC-P03": ((COPY, IZC, EAGER), (USM,)),
    "MC-P04": None,
    "MC-S01": (ALL, ()),
    "MC-S02": ((COPY,), (USM, IZC, EAGER)),
    "MC-S03": (ALL, ()),
    "MC-S04": (ALL, ()),
    "MC-S05": (ALL, ()),
    "MC-R01": (ALL, ()),
    "MC-R02": ((USM, IZC, EAGER), (COPY,)),
    "MC-S10": (ALL, ()),
    "MC-S11": (ALL, ()),
    "MC-S12": ((COPY,), (USM, IZC, EAGER)),
    "MC-P10": ((COPY, EAGER), (USM, IZC)),
    "MC-S20": ((USM, IZC, EAGER), (COPY,)),
    "MC-S21": (ALL, ()),
    "MC-S22": (ALL, ()),
    "MC-W01": ((EAGER,), (COPY, USM, IZC)),
    "MC-W02": ((COPY,), (USM, IZC, EAGER)),
    "MC-W03": ((USM, IZC), (COPY, EAGER)),
    "MC-W04": ((USM,), (COPY, IZC, EAGER)),
    "MC-W05": ((USM, IZC, EAGER), (COPY,)),
    "MC-A01": ((USM, IZC), (COPY, EAGER)),
    "MC-A02": ((COPY, EAGER), (USM, IZC)),
    "MC-A03": ((USM, IZC, EAGER), (COPY,)),
    "MC-A04": ((COPY,), (USM, IZC, EAGER)),
}


def test_rule_set_matches_snapshot_exactly():
    assert set(RULES) == set(_SNAPSHOT)
    for rid, (analysis, severity, family) in _SNAPSHOT.items():
        rule = RULES[rid]
        assert rule.analysis is analysis, rid
        assert rule.severity is severity, rid
        assert rule.family == family, rid


def _catalog():
    """rule id -> the matrix the rule catalog derives from its predicate"""
    return {rid: rule.matrix for rid, rule in RULES.items()}


def test_canonical_matrices_match_snapshot_exactly():
    assert _catalog() == _MATRICES


def test_every_rule_has_a_matrix_entry():
    assert set(_catalog()) == set(RULES)
    # only MC-P04's matrix depends on the finding
    assert [rid for rid, r in RULES.items() if r.breaks is None] == ["MC-P04"]


def test_matrices_partition_the_config_space():
    for rid, matrix in _catalog().items():
        if matrix is None:
            continue
        breaks_under, passes_under = matrix
        assert not set(breaks_under) & set(passes_under), rid
        assert set(breaks_under) | set(passes_under) <= set(ALL), rid


def test_static_rule_matrices_derive_from_config_semantics():
    """The static rules must not hand-copy their matrices: they are
    derived from per-config semantics (XNACK, shadow copies) by each
    rule's ``breaks`` predicate and must agree with the frozen table —
    and, transitively, with what the dynamic counterpart analyses emit."""
    for rid in ("MC-S10", "MC-S11", "MC-S12", "MC-P10"):
        assert RULES[rid].matrix == _MATRICES[rid], rid


def test_perf_rule_matrices_derive_from_config_semantics():
    """MC-W matrices likewise must be derived (from the rules' overhead
    predicates), never hand-copied."""
    from repro.check.static.cost import PERF_RULE_IDS

    assert set(PERF_RULE_IDS) == {
        "MC-W01", "MC-W02", "MC-W03", "MC-W04", "MC-W05"
    }
    for rid in PERF_RULE_IDS:
        assert RULES[rid].matrix == _MATRICES[rid], rid


def test_race_rule_matrices_derive_from_config_semantics():
    """MC-S20..S22 matrices likewise must be derived from the rules'
    predicates (Copy's shadow isolation makes MC-S20 benign there,
    exactly MC-R02's dynamic matrix), never hand-copied."""
    from repro.check.static.race import RACE_RULE_IDS

    assert set(RACE_RULE_IDS) == {"MC-S20", "MC-S21", "MC-S22"}
    for rid in RACE_RULE_IDS:
        assert RULES[rid].matrix == _MATRICES[rid], rid
    # MC-S20 must agree with its dynamic twin's matrix bit-for-bit
    assert RULES["MC-S20"].matrix == RULES["MC-R02"].matrix
    assert RULES["MC-S21"].matrix == RULES["MC-R01"].matrix


def test_place_rule_matrices_derive_from_config_semantics():
    """MC-A matrices likewise must be derived from the rules' predicates
    ("breaks" = pays the remote-link cost under that config), never
    hand-copied."""
    from repro.check.static.place import PLACE_RULE_IDS

    assert set(PLACE_RULE_IDS) == {"MC-A01", "MC-A02", "MC-A03", "MC-A04"}
    for rid in PLACE_RULE_IDS:
        assert RULES[rid].matrix == _MATRICES[rid], rid


def test_families_group_static_with_dynamic():
    assert RULE_FAMILIES["refcount"] == ("MC-S01", "MC-S03", "MC-S10")
    assert RULE_FAMILIES["leak"] == ("MC-S02", "MC-S12")
    assert RULE_FAMILIES["inflight-unmap"] == ("MC-S04", "MC-S11")
    assert RULE_FAMILIES["missing-map"] == ("MC-P01", "MC-P10")
    # MapRace pairs the dynamic race detector with its static twins
    assert RULE_FAMILIES["map-race"] == ("MC-R01", "MC-S21")
    assert RULE_FAMILIES["host-write-race"] == ("MC-R02", "MC-S20")
    assert RULE_FAMILIES["nowait-result"] == ("MC-S22",)


@pytest.mark.parametrize(
    "cls", [*CORPUS.values(), *PERF_CORPUS.values()], ids=lambda c: c.name)
def test_emitted_findings_carry_the_frozen_matrix(cls):
    """Every analysis that emits a finding — dynamic lint, sanitizer and
    race detector, MapFlow, MapRace, the perf and affinity lints —
    attaches exactly its rule's frozen matrix (MC-P04's alone depends on
    which configurations diverged)."""
    findings = check_workload(cls, cls.name).findings
    findings += analyze_workload(
        cls(), cls.name, perf=True, place=PlaceSpec.parse(4, "pinned:1"),
    )[0].findings
    assert findings
    for f in findings:
        if f.rule_id != "MC-P04":
            assert (f.breaks_under, f.passes_under) == _MATRICES[f.rule_id], f
