"""The MapFix remediation engine: synthesize -> verify -> rank.

``remediate`` drives rounds of *fix one finding, re-analyze everything*:

1. run the full static report (MapFlow + MapRace + MapCost lint) over
   the current source;
2. for the highest-ranked located finding with a registered synthesizer,
   propose candidate edits (:mod:`.synthesize`);
3. apply each candidate to a scratch copy, re-import it as a sandbox
   module and re-run the same 27-rule report (:mod:`.sandbox`); accept
   only if the target finding disappears *and* zero new findings appear
   (fingerprinted by ``rule:buffer`` — the baseline discipline);
4. on acceptance, record the fix with its MapCost-predicted per-config
   cost delta (HSA calls bit-exact, byte/page intervals) and continue
   from the patched source — some defects (the nowait-result pair) only
   become fixable after another fix lands.

When the rounds converge, an *instrumented dynamic re-run* under the
formerly-breaking configurations classifies the workload: ``fixed``
(statically and dynamically clean), ``partial`` (fixes verified, known
residual findings unchanged) or ``unfixable`` — a dynamic regression
rejects the whole fix set rather than ship a statically-pretty edit
that still breaks at runtime (the corpus' refcount-corruption workload
exists to pin exactly that).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ....core.config import ALL_CONFIGS
from ....workloads.base import Workload
from ...findings import _SEV_ORDER, CheckReport, Finding
from ..cost import BOUNDED_KEYS, EXACT_KEYS, predict_costs
from ..cost.intervals import Interval
from ..ir import WorkloadIR
from ..rules import _relative_source, analyze_workload
from .edits import (
    EditError,
    SourceEdit,
    apply_edits,
    line_map,
    rebase_edit,
    render_diff,
)
from .sandbox import SandboxError, load_patched, sandbox_dir
from .synthesize import FixContext, Refusal, SourceIndex, synthesize_fixes

__all__ = ["AppliedFix", "RemediationResult", "remediate", "write_patches"]

_ZERO = Interval(0, 0)
#: fix rounds per workload: each round applies at most one fix, then
#: re-analyzes the patched source
MAX_ROUNDS = 8


@dataclass
class AppliedFix:
    """One sandbox-verified fix, expressed against the original source."""

    workload: str
    rule_id: str
    buffer: str
    kind: str
    description: str
    round: int
    path: str                               #: repo-relative source path
    edits: Tuple[SourceEdit, ...]           #: original-file coordinates
    #: config label -> {"exact": {key: {before, after, saved}},
    #:                  "bounded": {key: {before: [lo,hi], after: [lo,hi]}}}
    cost_delta: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: rank score: total exact-counter reduction summed over all configs
    saved_exact: int = 0

    def delta_summary(self) -> str:
        parts = []
        for label, entry in self.cost_delta.items():
            exact = entry.get("exact", {})
            saved = sum(d["saved"] for d in exact.values())
            chunk = f"{label}: {-saved:+d} ops" if exact else f"{label}: ±0"
            bounded = entry.get("bounded", {})
            for key in ("h2d_bytes", "d2h_bytes"):
                if key in bounded:
                    b, a = bounded[key]["before"], bounded[key]["after"]
                    chunk += f", {key} {b}->{a}"
            parts.append(chunk)
        return "; ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "rule": self.rule_id,
            "buffer": self.buffer,
            "kind": self.kind,
            "description": self.description,
            "round": self.round,
            "path": self.path,
            "edits": [e.to_dict() for e in self.edits],
            "cost_delta": self.cost_delta,
            "saved_exact": self.saved_exact,
        }

    def finding_attachment(self) -> Dict[str, object]:
        """The ``Finding.fix`` payload (SARIF ``fixes[]`` feeds off it)."""
        return {
            "description": self.description,
            "kind": self.kind,
            "round": self.round,
            "path": self.path,
            "edits": [e.to_dict() for e in self.edits],
            "cost_delta": self.cost_delta,
            "saved_exact": self.saved_exact,
        }


@dataclass
class RemediationResult:
    """Everything ``remediate`` decided about one workload."""

    workload: str
    path: str
    status: str                              #: clean|fixed|partial|unfixable
    fixes: List[AppliedFix] = field(default_factory=list)
    refusals: List[Refusal] = field(default_factory=list)
    rejected: List[str] = field(default_factory=list)
    residual: List[str] = field(default_factory=list)
    dynamic: Optional[str] = None
    original_text: str = ""
    patched_text: Optional[str] = None
    #: the round-0 static+perf report (fixes attached to its findings)
    report: Optional[CheckReport] = None
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status in ("clean", "fixed")

    def ranked_fixes(self) -> List[AppliedFix]:
        return sorted(self.fixes, key=lambda f: (-f.saved_exact, f.round))

    def diff(self) -> str:
        if self.patched_text is None or self.patched_text == self.original_text:
            return ""
        return render_diff(self.original_text, self.patched_text, self.path)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "path": self.path,
            "status": self.status,
            "fixes": [f.to_dict() for f in self.ranked_fixes()],
            "refusals": [r.render() for r in self.refusals],
            "rejected": list(self.rejected),
            "residual": list(self.residual),
            "dynamic": self.dynamic,
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = [f"MapFix — workload {self.workload!r} ({self.path})",
                 "-" * 72,
                 f"status : {self.status}"
                 + (f"  [dynamic: {self.dynamic}]" if self.dynamic else "")]
        for i, fix in enumerate(self.ranked_fixes(), 1):
            lines.append(f"fix {i}  : [{fix.rule_id} {fix.buffer!r}] "
                         f"{fix.description}")
            lines.append(f"         cost delta: {fix.delta_summary()}")
        for r in self.refusals:
            lines.append(f"refused: {r.render()}")
        for r in self.rejected:
            lines.append(f"reject : {r}")
        if self.residual:
            lines.append("residual: " + ", ".join(self.residual))
        for n in self.notes:
            lines.append(f"note   : {n}")
        return "\n".join(lines)


def _sorted_active(findings: List[Finding]) -> List[Finding]:
    return sorted(
        (f for f in findings if not f.suppressed),
        key=lambda f: (_SEV_ORDER[f.severity],) + f.sort_key(),
    )


def _fingerprints(findings: List[Finding]) -> set:
    return {(f.rule_id, f.buffer) for f in findings if not f.suppressed}


def _cost_delta(before: WorkloadIR, after: WorkloadIR
                ) -> Tuple[Dict[str, Dict[str, object]], int]:
    delta: Dict[str, Dict[str, object]] = {}
    saved_total = 0
    for cfg in ALL_CONFIGS:
        b = predict_costs(before, cfg).counters
        a = predict_costs(after, cfg).counters
        exact: Dict[str, object] = {}
        for key in EXACT_KEYS:
            bi, ai = b.get(key, _ZERO), a.get(key, _ZERO)
            if (bi.lo, bi.hi) != (ai.lo, ai.hi):
                saved = bi.lo - ai.lo
                exact[key] = {"before": bi.lo, "after": ai.lo, "saved": saved}
                saved_total += saved
        bounded: Dict[str, object] = {}
        for key in BOUNDED_KEYS:
            bi, ai = b.get(key, _ZERO), a.get(key, _ZERO)
            if (bi.lo, bi.hi) != (ai.lo, ai.hi):
                bounded[key] = {"before": [bi.lo, bi.hi],
                                "after": [ai.lo, ai.hi]}
        delta[cfg.value] = {"exact": exact, "bounded": bounded}
    return delta, saved_total


def _dedupe_refusals(refusals: List[Refusal]) -> List[Refusal]:
    seen, out = set(), []
    for r in refusals:
        key = (r.rule_id, r.buffer, r.reason)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


def remediate(
    factory: Callable[[], Workload],
    name: Optional[str] = None,
    *,
    dynamic: bool = True,
    rebuild: Optional[Callable[[object], Workload]] = None,
) -> RemediationResult:
    """Synthesize, verify and rank fixes for one workload.

    ``dynamic=False`` stops after static verification (``check
    --fix-dry-run --no-sim`` and the advisor's in-process phase use
    it); the corpus differential and CI always run the dynamic gate.  ``rebuild`` instantiates the
    workload from a sandbox module when the class needs constructor
    arguments (see :func:`.sandbox.load_patched`).
    """
    return _remediate(factory, name, dynamic=dynamic, rebuild=rebuild,
                      index_original=SourceIndex)


def _remediate(
    factory: Callable[[], Workload],
    name: Optional[str],
    *,
    dynamic: bool,
    rebuild: Optional[Callable[[object], Workload]] = None,
    index_original: Callable[[str], SourceIndex],
) -> RemediationResult:
    """:func:`remediate`, indexing the unedited source through
    ``index_original`` — a caller remediating several workloads of one
    file passes a cached builder, so the file is parsed once for all."""
    instance = factory()
    wname = name or instance.name
    cls_name = type(instance).__name__
    origin_module = type(instance).__module__
    report0, ir0 = analyze_workload(factory(), wname, perf=True)
    if ir0 is None:
        return RemediationResult(
            workload=wname, path="", status="unfixable",
            notes=[report0.aborted],
        )
    path = ir0.source_file
    rel = _relative_source(path) or path
    with open(path) as fh:
        original_text = fh.read()

    result = RemediationResult(workload=wname, path=rel, status="clean",
                               original_text=original_text)
    base_findings = sorted(report0.findings, key=Finding.sort_key)
    result.report = CheckReport(
        workload=wname,
        fidelity=getattr(instance.fidelity, "value", "?"),
        findings=base_findings,
    )
    refusals: List[Refusal] = []

    cur_text, cur_build, cur_ir = original_text, factory, ir0
    cur_findings = _sorted_active(base_findings)
    with sandbox_dir() as tmpdir:
        for rnd in range(1, MAX_ROUNDS + 1):
            if not cur_findings:
                break
            accepted = False
            cur_fps = _fingerprints(cur_findings)
            ctx = FixContext(
                name=wname, ir=cur_ir, path=path, text=cur_text,
                indexer=(index_original if cur_text is original_text
                         else SourceIndex))
            for finding in cur_findings:
                candidates, refs = synthesize_fixes(finding, ctx)
                refusals.extend(refs)
                target_fp = (finding.rule_id, finding.buffer)
                for cand in candidates:
                    try:
                        new_text = apply_edits(cur_text, cand.edits)
                        build = load_patched(new_text, origin_module,
                                             cls_name, tmpdir,
                                             rebuild=rebuild)
                        report, ir = analyze_workload(build(), wname,
                                                      perf=True)
                    except (EditError, SandboxError) as exc:
                        result.rejected.append(
                            f"{cand.kind} for {finding.rule_id} "
                            f"{finding.buffer!r}: sandbox failed ({exc})")
                        continue
                    if ir is None:
                        result.rejected.append(
                            f"{cand.kind} for {finding.rule_id} "
                            f"{finding.buffer!r}: patched source no longer "
                            f"analyzes ({report.aborted})")
                        continue
                    new_fps = _fingerprints(report.findings)
                    if target_fp in new_fps:
                        result.rejected.append(
                            f"{cand.kind} for {finding.rule_id} "
                            f"{finding.buffer!r}: finding survives the edit")
                        continue
                    introduced = new_fps - (cur_fps - {target_fp})
                    if introduced:
                        result.rejected.append(
                            f"{cand.kind} for {finding.rule_id} "
                            f"{finding.buffer!r}: edit introduces "
                            + ", ".join(f"{r}:{b}" for r, b
                                        in sorted(introduced)))
                        continue
                    # verified: rebase the edits onto original coordinates
                    try:
                        mapping = line_map(original_text, cur_text)
                        n_cur = len(cur_text.splitlines())
                        rebased = tuple(rebase_edit(e, mapping, n_cur)
                                        for e in cand.edits)
                    except EditError as exc:
                        result.rejected.append(
                            f"{cand.kind} for {finding.rule_id} "
                            f"{finding.buffer!r}: cannot express the edit "
                            f"against the original source ({exc})")
                        continue
                    delta, saved = _cost_delta(cur_ir, ir)
                    result.fixes.append(AppliedFix(
                        workload=wname, rule_id=finding.rule_id,
                        buffer=finding.buffer, kind=cand.kind,
                        description=cand.description, round=rnd,
                        path=rel, edits=rebased, cost_delta=delta,
                        saved_exact=saved,
                    ))
                    cur_text, cur_build, cur_ir = new_text, build, ir
                    cur_findings = _sorted_active(report.findings)
                    accepted = True
                    break
                if accepted:
                    break
            if not accepted:
                break

        result.refusals = _dedupe_refusals(refusals)
        result.residual = sorted(
            {f"{r}:{b}" for r, b in _fingerprints(cur_findings)})
        result.patched_text = cur_text if result.fixes else None

        if not result.fixes:
            result.status = "clean" if not base_findings else "unfixable"
        elif not dynamic:
            result.status = "partial" if result.residual else "fixed"
            result.dynamic = "skipped (static-only verification)"
        else:
            _dynamic_gate(result, factory, cur_build, wname)

    if result.fixes:
        _attach_fixes(result)
    return result


def _dynamic_gate(result: RemediationResult,
                  factory: Callable[[], Workload],
                  patched_build: Callable[[], Workload],
                  wname: str) -> None:
    """Instrumented re-run of the patched workload; rejects regressions."""
    from ...runner import check_workload

    if not result.residual:
        full = check_workload(patched_build, wname, cross_check=True)
        if full.ok:
            result.status = "fixed"
            result.dynamic = (
                "clean under all four configurations (instrumented re-run "
                "+ differential)")
            return
    base_dyn = check_workload(factory, wname, cross_check=False)
    patched_dyn = check_workload(patched_build, wname, cross_check=False)
    new_dyn = (_fingerprints(patched_dyn.findings)
               - _fingerprints(base_dyn.findings))
    new_abort = patched_dyn.aborted is not None and base_dyn.aborted is None
    if new_dyn or new_abort:
        what = ", ".join(f"{r}:{b}" for r, b in sorted(new_dyn)) or \
            f"abort ({patched_dyn.aborted})"
        result.rejected.extend(
            f"{f.kind} for {f.rule_id} {f.buffer!r}: dynamic re-run "
            f"regressed ({what})" for f in result.fixes)
        result.fixes = []
        result.patched_text = None
        result.status = "unfixable"
        result.dynamic = f"rejected: patched run introduces {what}"
    else:
        result.status = "partial"
        result.dynamic = (
            "no dynamic regression; pre-existing dynamic findings remain")


def _attach_fixes(result: RemediationResult) -> None:
    """Attach each fix to the matching finding of the round-0 report."""
    if result.report is None:
        return
    by_fp: Dict[Tuple[str, str], AppliedFix] = {}
    for fix in result.ranked_fixes():
        by_fp.setdefault((fix.rule_id, fix.buffer), fix)
    for finding in result.report.findings:
        fix = by_fp.get((finding.rule_id, finding.buffer))
        if fix is not None and finding.fix is None:
            finding.fix = fix.finding_attachment()


def write_patches(results: List[RemediationResult], out_dir: str) -> List[str]:
    """Write one unified-diff patch file per remediated workload."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for res in results:
        diff = res.diff()
        if not diff:
            continue
        fname = os.path.join(out_dir, f"{res.workload}.patch")
        with open(fname, "w") as fh:
            fh.write(diff)
        written.append(fname)
    return written
