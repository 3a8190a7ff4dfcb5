"""Corpus-wide fix differential: the MapFix acceptance gate.

Runs :func:`~.engine.remediate` over the whole faulty corpus (CORPUS +
PERF_CORPUS) and checks every workload lands in its *expected* class:

* ``fixed`` — at least one verified fix, statically clean afterwards,
  and the instrumented dynamic re-run under the formerly-breaking
  configurations is clean too;
* ``partial`` — fixes verified, but residual findings outside MapFix's
  mechanical scope remain (and the dynamic re-run did not regress);
* ``unfixable`` — zero proposed fixes, either by synthesis refusal, by
  sandbox rejection of every candidate, or by the dynamic gate; the two
  deliberately ambiguous corpus workloads *must* land here with zero
  proposals — a speculative edit on them fails the differential;
* ``clean`` — no static findings for MapFix to act on (dynamic-only
  defect families).

The expectations are pinned per workload, so a synthesizer that starts
guessing (or stops fixing) fails CI, exactly like the static/dynamic
differential that precedes this one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ...corpus import CORPUS, PERF_CORPUS
from .engine import RemediationResult, remediate

__all__ = ["EXPECTED_STATUS", "FixDifferentialResult", "fix_differential"]

#: corpus short name -> expected remediation class (dynamic gate on)
EXPECTED_STATUS: Dict[str, str] = {
    # CORPUS — one canonical correctness defect each
    "missing-map": "fixed",          # widen-coverage at the dispatch
    "missing-from": "clean",         # dynamic-only family (MC-P02)
    "stale-global": "clean",         # dynamic-only family (MC-P03)
    "leak": "fixed",                 # insert the missing exit data
    "double-unmap": "fixed",         # drop the second exit
    "underflow": "unfixable",        # statically plausible fix is rejected
                                     # by the dynamic gate: the refcount
                                     # corruption is invisible to the IR
    "always-misuse": "partial",      # the leaked mapping is fixed; the
                                     # 'always' misuse is dynamic-only
    "use-after-unmap": "unfixable",  # MC-S11/MC-S21: cross-thread intent
    "map-race": "partial",           # the redundant re-map is demoted;
                                     # the MC-S21 race needs a protocol
    "host-write-race": "fixed",      # move the wait above the write
    "nowait-result": "fixed",        # two rounds: bind+wait, then exit
    "exit-exit-race": "partial",     # as map-race
    "cross-thread-host-write": "unfixable",  # no wait visible to writer
    "ambiguous-release": "unfixable",        # removal only safe on some
                                             # paths: synthesis refuses
                                             # (control-dependent exit)
    "escaped-buffer-leak": "unfixable",      # owner is not a simple name:
                                             # synthesis refuses outright
    # PERF_CORPUS — dynamically clean, expensive patterns
    "map-churn": "fixed",
    "redundant-map": "fixed",
    "fault-storm": "fixed",
    "global-indirection": "unfixable",       # MC-W04 needs an API change
    "noop-update": "fixed",
}

#: workloads that must receive *zero* proposed fixes (no speculative
#: edits) — the satellite-2 pin plus the dynamic-gate rejection case
ZERO_FIX_EXPECTED = frozenset({
    "underflow", "use-after-unmap", "cross-thread-host-write",
    "ambiguous-release", "escaped-buffer-leak", "global-indirection",
})


@dataclass
class FixDifferentialResult:
    results: Dict[str, RemediationResult] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "mismatches": list(self.mismatches),
            "expected": dict(EXPECTED_STATUS),
            "workloads": {
                name: res.to_dict() for name, res in self.results.items()
            },
        }

    def render(self) -> str:
        lines = [
            f"{'workload':<26}{'status':<11}{'expected':<11}"
            f"{'fixes':>6}  dynamic",
            "-" * 78,
        ]
        for name, res in self.results.items():
            lines.append(
                f"{name:<26}{res.status:<11}"
                f"{EXPECTED_STATUS.get(name, '?'):<11}"
                f"{len(res.fixes):>6}  {res.dynamic or '-'}"
            )
        lines.append("-" * 78)
        if self.mismatches:
            lines.append(f"FIX DIFFERENTIAL FAILED "
                         f"({len(self.mismatches)} mismatch(es)):")
            lines.extend(f"  {m}" for m in self.mismatches)
        else:
            n_fixes = sum(len(r.fixes) for r in self.results.values())
            lines.append(
                f"fix differential OK: {n_fixes} verified fix(es) across "
                f"{len(self.results)} corpus workloads, every class as "
                "expected")
        return "\n".join(lines)


def fix_differential(
    *,
    dynamic: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> FixDifferentialResult:
    """Remediate the whole corpus and gate against the expected classes.

    With ``dynamic=False`` only the static verdicts are checked (the
    dynamic-gate-dependent workloads are exempted from class matching);
    CI runs the full dynamic gate.
    """
    out = FixDifferentialResult()
    entries = {**CORPUS, **PERF_CORPUS}
    for name, cls in entries.items():
        if progress is not None:
            progress(f"mapfix {name}")
        res = remediate(cls, cls().name, dynamic=dynamic)
        out.results[name] = res
        expected = EXPECTED_STATUS.get(name)
        if expected is None:
            out.mismatches.append(f"{name}: no expected class recorded — "
                                  "extend EXPECTED_STATUS")
            continue
        if not dynamic and expected in ("fixed", "partial", "unfixable"):
            # without the dynamic gate only the zero-fix pins stay exact
            if name in ZERO_FIX_EXPECTED and name not in (
                    "underflow",) and res.fixes:
                out.mismatches.append(
                    f"{name}: proposed {len(res.fixes)} fix(es) but must "
                    "refuse")
            continue
        if res.status != expected:
            out.mismatches.append(
                f"{name}: status {res.status!r}, expected {expected!r}")
        if expected == "fixed":
            if not res.fixes:
                out.mismatches.append(f"{name}: expected >=1 verified fix")
            if res.residual:
                out.mismatches.append(
                    f"{name}: residual findings after remediation: "
                    + ", ".join(res.residual))
        if name in ZERO_FIX_EXPECTED and res.fixes:
            out.mismatches.append(
                f"{name}: proposed {len(res.fixes)} fix(es) but must refuse "
                "(speculative edit)")
        for fix in res.fixes:
            if set(fix.cost_delta) != {c.value for c in _all_configs()}:
                out.mismatches.append(
                    f"{name}: fix {fix.kind} lacks a per-config cost delta")
            if not fix.edits:
                out.mismatches.append(
                    f"{name}: fix {fix.kind} carries no edits")
    return out


def _all_configs():
    from ....core.config import ALL_CONFIGS

    return ALL_CONFIGS
