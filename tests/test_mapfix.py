"""MapFix: verified auto-remediation for the static rule catalog.

One full corpus differential (dynamic gate on) is shared across the
module; the tests pin the remediation class of every corpus workload,
the zero-fix discipline on the deliberately ambiguous entries, the
cost-delta contract on every accepted fix, and the SARIF ``fixes[]``
round trip.  Edit-layer behavior gets direct unit tests.
"""

import linecache
import os
import sys

import pytest

import repro
from repro.check.sarif import to_sarif
from repro.check.static.fix import (
    EXPECTED_STATUS,
    FIXABLE_RULES,
    SourceEdit,
    apply_edits,
    fix_differential,
    sarif_replacements,
    write_patches,
)
from repro.check.static.fix.differential import ZERO_FIX_EXPECTED
from repro.check.static.fix.edits import EditError, line_map, rebase_edit
from repro.core.config import ALL_CONFIGS

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(scope="module")
def diff():
    return fix_differential(dynamic=True)


# ---------------------------------------------------------------------------
# corpus differential: statuses, pins, acceptance criteria
# ---------------------------------------------------------------------------
def test_fix_differential_is_clean(diff):
    assert diff.ok, "\n".join(diff.mismatches)
    assert set(diff.results) == set(EXPECTED_STATUS)


def test_fix_differential_leaves_no_sandbox_module_behind(diff):
    # ``diff`` already ran the dynamic pass; a static-only pass must not
    # leave anything behind either, and must reach the same verdicts
    static = fix_differential(dynamic=False)
    assert static.ok, "\n".join(static.mismatches)
    assert not [m for m in sys.modules if "_mapfix_sandbox" in m]
    assert not [p for p in linecache.cache if "mapfix-" in p]


def test_every_workload_lands_in_its_pinned_class(diff):
    for name, res in diff.results.items():
        assert res.status == EXPECTED_STATUS[name], name


def test_fixed_workloads_are_statically_and_dynamically_clean(diff):
    for name, res in diff.results.items():
        if EXPECTED_STATUS[name] != "fixed":
            continue
        assert res.fixes, name
        assert not res.residual, (name, res.residual)
        assert res.dynamic.startswith("clean under all four"), name
        assert res.patched_text and res.patched_text != res.original_text


def test_unfixable_workloads_get_zero_proposed_fixes(diff):
    for name in ZERO_FIX_EXPECTED:
        res = diff.results[name]
        assert res.fixes == [], f"{name}: speculative edit proposed"
        assert res.patched_text is None, name


def test_ambiguous_release_refused_at_synthesis(diff):
    # removal is only safe on some paths: MapFix must refuse rather
    # than guess (the strong-ops-only false-positive discipline)
    res = diff.results["ambiguous-release"]
    assert res.refusals, "expected an explicit refusal"
    assert any("only safe on some paths" in r.reason for r in res.refusals)
    assert not res.rejected


def test_escaped_buffer_refused_at_synthesis(diff):
    res = diff.results["escaped-buffer-leak"]
    assert any("not a simple variable" in r.reason for r in res.refusals)
    assert not res.rejected


def test_underflow_fix_rejected_by_the_dynamic_gate(diff):
    # the statically-plausible edit hides a refcount corruption the IR
    # cannot see; the instrumented re-run must veto it
    res = diff.results["underflow"]
    assert res.rejected, "expected a dynamic-gate rejection"
    assert any("dynamic re-run regressed" in r for r in res.rejected)
    assert res.dynamic.startswith("rejected:")


def test_nowait_result_needs_two_rounds(diff):
    rounds = sorted(f.round for f in diff.results["nowait-result"].fixes)
    assert rounds == [1, 2]


def test_partial_workloads_keep_out_of_scope_residual(diff):
    res = diff.results["map-race"]
    assert res.fixes and res.residual == ["MC-S21:contested"]
    assert res.dynamic.startswith("no dynamic regression")


# ---------------------------------------------------------------------------
# cost-delta contract
# ---------------------------------------------------------------------------
def test_every_fix_carries_a_four_config_cost_delta(diff):
    labels = {c.value for c in ALL_CONFIGS}
    for name, res in diff.results.items():
        for fix in res.fixes:
            assert set(fix.cost_delta) == labels, (name, fix.kind)
            saved = 0
            for entry in fix.cost_delta.values():
                for d in entry["exact"].values():
                    assert d["before"] - d["saved"] == d["after"]
                    saved += d["saved"]
                for b in entry["bounded"].values():
                    assert len(b["before"]) == 2 and len(b["after"]) == 2
            assert fix.saved_exact == saved, (name, fix.kind)


def test_missing_map_fix_prices_the_widened_transfer(diff):
    [fix] = diff.results["missing-map"].fixes
    copy = fix.cost_delta["copy"]
    # widening ALLOC -> TOFROM buys correctness at a priced copy cost
    assert copy["bounded"]["h2d_bytes"]["after"][0] > \
        copy["bounded"]["h2d_bytes"]["before"][0]
    assert fix.saved_exact < 0


def test_fixes_rank_by_exact_savings(diff):
    for res in diff.results.values():
        ranked = res.ranked_fixes()
        assert [f.saved_exact for f in ranked] == sorted(
            (f.saved_exact for f in ranked), reverse=True)


def test_fixable_rules_catalog():
    assert FIXABLE_RULES == frozenset({
        "MC-S10", "MC-S12", "MC-S20", "MC-S22", "MC-P10",
        "MC-W01", "MC-W02", "MC-W03", "MC-W05",
    })


# ---------------------------------------------------------------------------
# patch files and SARIF fixes[] round trip
# ---------------------------------------------------------------------------
def test_write_patches_emits_appliable_diffs(diff, tmp_path):
    written = write_patches(list(diff.results.values()), str(tmp_path))
    n_patched = sum(1 for r in diff.results.values() if r.fixes)
    assert len(written) == n_patched
    for path in written:
        text = open(path).read()
        assert text.startswith("--- a/repro/")
        assert "+++ b/repro/" in text


def test_sarif_fixes_conform_and_regions_stay_in_bounds(diff):
    reports = [r.report for r in diff.results.values() if r.report]
    (run,) = to_sarif(reports)["runs"]
    with_fix = [r for r in run["results"] if "fixes" in r]
    fixed_fps = {(f.rule_id, f.buffer)
                 for res in diff.results.values() for f in res.fixes}
    assert len(with_fix) == len(fixed_fps)
    for result in with_fix:
        (fix,) = result["fixes"]
        assert fix["description"]["text"]
        (change,) = fix["artifactChanges"]
        uri = change["artifactLocation"]["uri"]
        full = os.path.join(SRC_ROOT, uri)
        assert os.path.exists(full), uri
        n_lines = len(open(full).read().splitlines())
        assert change["replacements"]
        for rep in change["replacements"]:
            region = rep["deletedRegion"]
            assert 1 <= region["startLine"] <= region["endLine"] <= n_lines
            if "insertedContent" in rep:
                assert rep["insertedContent"]["text"].endswith("\n")
        props = result["properties"]["fix"]
        assert set(props) == {"kind", "round", "costDelta", "savedExact"}


def test_sarif_suppressions_conform():
    from repro.check.findings import CheckReport, Finding

    f = Finding(rule_id="MC-S02", buffer="b", message="m", workload="w",
                suppressed=True)
    rep = CheckReport(workload="w", fidelity="test", findings=[f])
    (run,) = to_sarif([rep])["runs"]
    (result,) = run["results"]
    (sup,) = result["suppressions"]
    assert sup["kind"] in ("external", "inSource")
    assert sup["justification"]


# ---------------------------------------------------------------------------
# edit layer
# ---------------------------------------------------------------------------
def test_apply_edits_replacement_and_insertion():
    text = "a\nb\nc\n"
    out = apply_edits(text, [
        SourceEdit(start=2, end=2, new_lines=("B",)),
        SourceEdit(start=4, end=3, new_lines=("d",)),   # insert at EOF
    ])
    assert out == "a\nB\nc\nd\n"


def test_apply_edits_rejects_overlap_and_out_of_bounds():
    with pytest.raises(EditError, match="overlap"):
        apply_edits("a\nb\n", [SourceEdit(1, 2), SourceEdit(2, 2)])
    with pytest.raises(EditError, match="past end"):
        apply_edits("a\n", [SourceEdit(3, 3)])


def test_sarif_replacements_encode_insertions_as_zero_width():
    [rep] = sarif_replacements([SourceEdit(5, 4, ("x",))])
    assert rep["deletedRegion"] == {
        "startLine": 5, "startColumn": 1, "endLine": 5, "endColumn": 1,
    }
    assert rep["insertedContent"]["text"] == "x\n"


def test_rebase_edit_maps_back_through_prior_fixes():
    original = "a\nb\nc\n"
    edited = "a\nNEW\nb\nc\n"            # a fix inserted a line before b
    mapping = line_map(original, edited)
    rebased = rebase_edit(SourceEdit(4, 4, ("C",)), mapping, 4)
    assert (rebased.start, rebased.end) == (3, 3)
    # lines rewritten by an earlier fix cannot anchor a later edit
    with pytest.raises(EditError):
        rebase_edit(SourceEdit(2, 2, ("x",)), mapping, 4)
