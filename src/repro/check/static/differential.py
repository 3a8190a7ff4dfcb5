"""Static-vs-dynamic differential harness.

The static analyses' correctness argument is empirical and two-sided:

* **Recall** (faulty corpus): every finding the *dynamic* analyses emit
  on :data:`repro.check.corpus.CORPUS` whose defect family is in static
  scope (i.e. a static counterpart rule exists) must be matched by a
  static finding with the same family and buffer — the abstract
  interpreter sees, without running anything, what the instrumented run
  observed.  The race families are in scope: every dynamic MC-R01/MC-R02
  race needs its MapRace MC-S21/MC-S20 twin.
* **Precision** (clean registry): the static report (MapFlow + MapRace)
  must hold *zero* findings on the 11 bundled clean workloads (a race
  finding counts like any other), and the static path must be genuinely
  static — no :class:`~repro.core.system.ApuSystem` may be constructed
  and no simulation event may fire while it analyzes (enforced here by
  poisoning the constructor for the duration).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ...workloads.base import Fidelity
from ..corpus import CORPUS
from ..findings import Finding, RULES
from ..registry import WORKLOADS, static_counterparts
from .rules import analyze_named, static_report

__all__ = ["DifferentialResult", "MatchRecord", "static_dynamic_differential"]


class _SimulationForbidden(AssertionError):
    pass


@contextlib.contextmanager
def _forbid_simulation() -> Iterator[None]:
    """Poison ``ApuSystem.__init__`` so any attempt to simulate during a
    static pass fails loudly instead of silently degrading the claim."""
    from ...core import system as system_mod

    original = system_mod.ApuSystem.__init__

    def poisoned(self, *args, **kwargs):  # pragma: no cover - must not run
        raise _SimulationForbidden(
            "static analysis path instantiated ApuSystem"
        )

    system_mod.ApuSystem.__init__ = poisoned
    try:
        yield
    finally:
        system_mod.ApuSystem.__init__ = original


@dataclass(frozen=True)
class MatchRecord:
    """One dynamic finding and how the static side answered it."""

    corpus_name: str
    dynamic_rule: str
    buffer: str
    family: str
    static_rule: Optional[str]    #: the matching static finding's rule id

    @property
    def matched(self) -> bool:
        return self.static_rule is not None


@dataclass
class DifferentialResult:
    #: dynamic findings with static counterparts, matched or not
    records: List[MatchRecord] = field(default_factory=list)
    #: clean workload name -> static findings (any entry is a failure)
    false_positives: Dict[str, List[Finding]] = field(default_factory=dict)
    #: clean workload name -> static extraction/analysis abort message
    aborts: Dict[str, str] = field(default_factory=dict)

    @property
    def unmatched(self) -> List[MatchRecord]:
        return [r for r in self.records if not r.matched]

    @property
    def ok(self) -> bool:
        return (not self.unmatched and not self.false_positives
                and not self.aborts)

    def render(self) -> str:
        lines = ["static/dynamic differential", "-" * 60]
        for r in self.records:
            verdict = f"matched by {r.static_rule}" if r.matched else "UNMATCHED"
            lines.append(
                f"  {r.corpus_name:<18} {r.dynamic_rule} "
                f"{r.buffer!r:<14} ({r.family}) -> {verdict}"
            )
        if self.false_positives:
            lines.append("false positives on clean workloads:")
            for name, findings in sorted(self.false_positives.items()):
                for f in findings:
                    lines.append(f"  {name:<18} {f.rule_id} {f.buffer!r}")
        if self.aborts:
            lines.append("static analysis aborts:")
            for name, msg in sorted(self.aborts.items()):
                lines.append(f"  {name:<18} {msg}")
        lines.append(
            f"result: {'OK' if self.ok else 'FAIL'} "
            f"({len(self.records)} in-scope dynamic finding(s), "
            f"{len(self.unmatched)} unmatched, "
            f"{sum(len(v) for v in self.false_positives.values())} "
            "false positive(s))"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "records": [{
                "corpus": r.corpus_name,
                "dynamic_rule": r.dynamic_rule,
                "buffer": r.buffer,
                "family": r.family,
                "static_rule": r.static_rule,
                "matched": r.matched,
            } for r in self.records],
            "false_positives": {
                name: [{"rule": f.rule_id, "buffer": f.buffer}
                       for f in findings]
                for name, findings in sorted(self.false_positives.items())
            },
            "aborts": dict(sorted(self.aborts.items())),
        }


def _family_of(rule_id: str) -> str:
    return RULES[rule_id].family


def _match(dynamic: Finding, static_findings: List[Finding]) -> Optional[str]:
    family = _family_of(dynamic.rule_id)
    for sf in static_findings:
        if _family_of(sf.rule_id) == family and sf.buffer == dynamic.buffer:
            return sf.rule_id
    return None


def static_dynamic_differential(
    *,
    corpus: bool = True,
    clean: bool = True,
    fidelity: Fidelity = Fidelity.TEST,
) -> DifferentialResult:
    """Run the two-sided differential; see the module docstring."""
    result = DifferentialResult()

    if corpus:
        from ..runner import check_workload

        for name, cls in CORPUS.items():
            dynamic = check_workload(cls, cls.name, cross_check=False)
            with _forbid_simulation():
                static = static_report(cls(), cls.name)
            if static.aborted:
                result.aborts[cls.name] = static.aborted
                continue
            for f in dynamic.findings:
                if not static_counterparts(f.rule_id):
                    continue  # missing-from, stale-global, always-misuse
                result.records.append(MatchRecord(
                    corpus_name=name,
                    dynamic_rule=f.rule_id,
                    buffer=f.buffer,
                    family=_family_of(f.rule_id),
                    static_rule=_match(f, static.findings),
                ))

    if clean:
        with _forbid_simulation():
            for name in sorted(WORKLOADS):
                report = analyze_named(name, fidelity)
                if report.aborted:
                    result.aborts[name] = report.aborted
                elif report.findings:
                    result.false_positives[name] = list(report.findings)

    return result
