"""Finding baselines: accept known findings, fail only on new ones.

A baseline file is a JSON document of stable finding *fingerprints*
(``rule_id:workload:buffer``).  ``repro check --baseline FILE`` marks
every finding whose fingerprint appears in the file as *suppressed*:
it stays in the JSON/SARIF output (SARIF carries an explicit
``suppressions`` entry so code-scanning UIs show it as reviewed), but
it no longer fails the run.  ``--write-baseline`` records the current
findings as the accepted set.

Fingerprints deliberately exclude line numbers and messages: moving a
known defect around a file or rewording a rule must not resurrect it.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Sequence, Set

from .findings import CheckReport, Finding

__all__ = [
    "fingerprint",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
]

_VERSION = 1


def fingerprint(finding: Finding) -> str:
    """Stable identity of a finding across runs and refactors."""
    return f"{finding.rule_id}:{finding.workload}:{finding.buffer}"


def load_baseline(path: str) -> Set[str]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "fingerprints" not in doc:
        raise ValueError(
            f"{path}: not a MapCheck baseline (missing 'fingerprints')"
        )
    return set(doc["fingerprints"])


def write_baseline(reports: Sequence[CheckReport], path: str) -> int:
    """Record every current finding as accepted; returns the count."""
    prints = sorted({
        fingerprint(f) for report in reports for f in report.findings
    })
    with open(path, "w") as fh:
        json.dump(
            {"version": _VERSION, "tool": "MapCheck", "fingerprints": prints},
            fh, indent=2,
        )
        fh.write("\n")
    return len(prints)


def apply_baseline(
    reports: Iterable[CheckReport], accepted: Set[str]
) -> Dict[str, int]:
    """Mark baselined findings suppressed; returns match statistics.

    Suppressed findings stay in the reports (and in SARIF, which emits
    ``suppressions`` for them) but stop counting toward
    :attr:`CheckReport.ok` and the CLI exit code.
    """
    suppressed = 0
    matched: Set[str] = set()
    total = 0
    for report in reports:
        for f in report.findings:
            total += 1
            fp = fingerprint(f)
            if fp in accepted:
                f.suppressed = True
                suppressed += 1
                matched.add(fp)
    return {
        "findings": total,
        "suppressed": suppressed,
        "stale_fingerprints": len(accepted - matched),
    }
