"""SARIF 2.1.0 export for MapCheck/MapFlow reports.

One ``run`` per invocation, one ``result`` per finding, with the full
rule catalog (ids, titles, summaries, severities, per-configuration
applicability matrices from the rules) embedded in the tool
component so SARIF viewers (GitHub code scanning, VS Code) render the
findings with stable rule metadata.  Findings are emitted in
:meth:`~repro.check.findings.Finding.sort_key` order, so the file is
byte-identical regardless of ``--jobs``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .findings import RULES, CheckReport, Finding, Severity
from .registry import dynamic_counterparts, static_counterparts

__all__ = ["to_sarif", "write_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: MapCheck severity -> SARIF result level
_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _rule_descriptor(rule_id: str) -> Dict[str, object]:
    rule = RULES[rule_id]
    matrix = rule.matrix
    properties: Dict[str, object] = {
        "analysis": rule.analysis.value,
        "family": rule.family,
    }
    if matrix is not None:
        breaks_under, passes_under = matrix
        properties["breaksUnder"] = [c.value for c in breaks_under]
        properties["passesUnder"] = [c.value for c in passes_under]
    counterparts = static_counterparts(rule_id) or dynamic_counterparts(rule_id)
    if counterparts:
        properties["counterparts"] = list(counterparts)
    return {
        "id": rule.id,
        "name": rule.title,
        "shortDescription": {"text": rule.title},
        "fullDescription": {"text": rule.summary},
        "defaultConfiguration": {"level": _LEVELS[rule.severity]},
        "properties": properties,
    }


def _sarif_fix(fix: Dict[str, object]) -> Dict[str, object]:
    """A SARIF ``fix`` object from a :class:`Finding.fix` attachment
    (produced by MapFix's :class:`~.static.fix.engine.AppliedFix`)."""
    from .static.fix.edits import SourceEdit, sarif_replacements

    edits = [
        SourceEdit(
            start=int(e["start"]), end=int(e["end"]),
            new_lines=tuple(e["new_lines"]), note=str(e.get("note", "")),
        )
        for e in fix["edits"]
    ]
    return {
        "description": {"text": fix["description"]},
        "artifactChanges": [{
            "artifactLocation": {
                "uri": str(fix["path"]).replace("\\", "/"),
            },
            "replacements": sarif_replacements(edits),
        }],
    }


def _result(finding: Finding) -> Dict[str, object]:
    result: Dict[str, object] = {
        "ruleId": finding.rule_id,
        "level": _LEVELS[finding.severity],
        "message": {"text": finding.message},
        "properties": {
            "workload": finding.workload,
            "buffer": finding.buffer,
            "breaksUnder": [c.value for c in finding.breaks_under],
            "passesUnder": [c.value for c in finding.passes_under],
            "confirmedBy": [c.value for c in finding.confirmed_by],
        },
    }
    if finding.fix:
        result["fixes"] = [_sarif_fix(finding.fix)]
        result["properties"]["fix"] = {
            "kind": finding.fix["kind"],
            "round": finding.fix["round"],
            "costDelta": finding.fix["cost_delta"],
            "savedExact": finding.fix["saved_exact"],
        }
    if finding.suppressed:
        # stays visible to SARIF viewers, marked as reviewed/accepted
        result["suppressions"] = [{
            "kind": "external",
            "justification": "accepted by MapCheck baseline file",
        }]
    if finding.tid is not None:
        result["properties"]["tid"] = finding.tid
    if finding.time_us is not None:
        result["properties"]["timeUs"] = finding.time_us
    if finding.related:
        result["properties"]["related"] = list(finding.related)
    if finding.source:
        path, line = finding.source
        result["locations"] = [{
            "physicalLocation": {
                "artifactLocation": {"uri": path.replace("\\", "/")},
                "region": {"startLine": max(int(line), 1)},
            },
        }]
    else:
        # SARIF results want a location; fall back to a logical one
        result["locations"] = [{
            "logicalLocations": [{
                "name": finding.buffer or finding.workload,
                "kind": "resource",
            }],
        }]
    return result


def to_sarif(reports: Sequence[CheckReport]) -> Dict[str, object]:
    """Assemble the SARIF log object for a sequence of check reports."""
    findings: List[Finding] = []
    for report in reports:
        findings.extend(report.sorted_findings())
    findings.sort(key=Finding.sort_key)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "MapCheck",
                    "version": "1.0.0",
                    "rules": [_rule_descriptor(rid) for rid in RULES],
                },
            },
            "results": [_result(f) for f in findings],
            "properties": {
                "workloads": [r.workload for r in reports],
                "aborted": {
                    r.workload: r.aborted
                    for r in reports if r.aborted
                },
            },
        }],
    }


def write_sarif(reports: Sequence[CheckReport], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_sarif(reports), fh, indent=2, sort_keys=False)
        fh.write("\n")
