"""Command-line interface: regenerate any paper artifact from the shell.

::

    python -m repro fig3   [--sizes 2,8,32] [--threads 1,2,4,8] [--quick] [--jobs N] [--cache]
    python -m repro fig4
    python -m repro table1 [--quick]
    python -m repro table2 [--reps 4] [--jobs N]
    python -m repro table3
    python -m repro all    [--quick] [--out report.txt]
    python -m repro check [workload|all] [--json] [--no-cross] [--rules]
                          [--static] [--perf] [--place] [--no-sim]
                          [--sarif FILE] [--perf-json FILE]
                          [--place-json FILE] [--topology N]
                          [--placement SPEC] [--baseline FILE]
                          [--write-baseline FILE] [--jobs N]
                          [--fix-dry-run] [--fix-out DIR] [--fix-json FILE]
    python -m repro bench  [--quick] [--jobs N] [--bench-json BENCH.json]
                           [--only scheduler|pagetable|meso|static]
                           [--bench-history DIR]

``check`` runs the MapCheck sanitizer/lint over a bundled workload (or
all of them) and exits 1 if any finding survives — suitable for CI.
``--static`` adds the MapFlow static dataflow analysis; ``--perf`` adds
the MapCost perf lint (MC-W rules) and ``--perf-json FILE`` writes the
static-vs-simulated cost differential (predicted HSA call counts must be
bit-exact); ``--place`` adds the MapPlace affinity lint (MC-A rules) at
the ``--topology N`` / ``--placement SPEC`` analysis point (placement
specs: ``first-touch``, ``interleave``, ``pinned:<home>``) and
``--place-json FILE`` writes the per-socket place differential
(predicted vs. instrumented multi-socket card telemetry); with
``--no-sim`` the static analyses are the only ones and no simulation
runs at all.  ``--sarif`` writes the findings as SARIF 2.1.0.  ``--baseline FILE`` suppresses findings whose fingerprints were
accepted by an earlier ``--write-baseline FILE`` run (suppressed
findings stay in SARIF, carrying ``suppressions``).  For ``check all``,
``--jobs`` fans the workloads out over a process pool with
byte-identical output.

``--fix-dry-run`` switches ``check`` into MapFix mode: for every faulty
corpus workload (or one named corpus entry) it synthesizes candidate
remediations, verifies each in a sandbox (the target finding must
disappear and zero new findings may appear across the full 27-rule
report), ranks accepted fixes by MapCost's predicted per-configuration
cost delta, and prints the verdicts — nothing in the repo is modified.
``--fix-out DIR`` additionally writes one unified-diff patch file per
remediated workload; ``--fix-json FILE`` writes the corpus fix
differential as JSON; ``--sarif`` in fix mode attaches SARIF 2.1.0
``fixes[]`` to the findings.  Exit status 1 if any workload misses its
pinned remediation class.

``--jobs N`` fans the independent (workload, config, repetition) cells
of an experiment out over N worker processes; results are bit-identical
to ``--jobs 1``.  ``--cache`` additionally serves unchanged cells from a
content-addressed on-disk store (``--cache-dir``), so a warm rerun of
fig3/fig4/table2 performs zero simulations; any input change (workload
parameters, cost model, engine version) changes the digest and re-runs
the cell.  ``bench`` times scheduler/pagetable micro-ops, a QMCPack run,
a full ratio experiment and the static pipeline, runs the
fused-vs-reference differential, writes
``BENCH.json`` plus a timestamped history copy, and exits 1 if any
run-equivalence invariant (never a timing) regresses.  ``--only TIER``
restricts the run to one tier.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments import (
    collect_qmcpack_grid,
    render_fig3,
    render_fig4,
    render_table1,
    render_table2,
    render_table3,
    table1_hsa_calls,
    table2_specaccel,
    table3_overheads,
)
from .workloads import Fidelity

__all__ = ["main"]


def _ints(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x]


def _progress(msg: str) -> None:
    print(f"  running {msg}", file=sys.stderr, flush=True)


def _cell_cache(args):
    """The on-disk cell cache, or ``None`` when ``--cache`` is off."""
    if not getattr(args, "cache", False):
        return None
    from .experiments.cache import CellCache

    return CellCache(args.cache_dir)


def _fig_grid(args, threads):
    return collect_qmcpack_grid(
        sizes=tuple(args.sizes),
        threads=threads,
        fidelity=Fidelity.BENCH,
        reps=1 if args.quick else args.reps,
        noise=not args.quick and args.reps > 1,
        progress=_progress,
        jobs=args.jobs,
        cache=_cell_cache(args),
    )


def cmd_fig3(args) -> str:
    return render_fig3(_fig_grid(args, tuple(args.threads)))


def cmd_fig4(args) -> str:
    return render_fig4(_fig_grid(args, (8,)), threads=8)


def cmd_table1(args) -> str:
    fidelity = Fidelity.BENCH if args.quick else Fidelity.FULL
    return render_table1(table1_hsa_calls(fidelity=fidelity, threads=(1, 8)))


def cmd_table2(args) -> str:
    fidelity = Fidelity.BENCH if args.quick else Fidelity.FULL
    result = table2_specaccel(
        reps=2 if args.quick else args.reps,
        fidelity=fidelity,
        progress=_progress,
        jobs=args.jobs,
        cache=_cell_cache(args),
    )
    return render_table2(result)


def cmd_table3(args) -> str:
    fidelity = Fidelity.BENCH if args.quick else Fidelity.FULL
    return render_table3(table3_overheads(fidelity=fidelity))


def cmd_all(args) -> str:
    parts = [
        cmd_fig3(args),
        cmd_fig4(args),
        cmd_table1(args),
        cmd_table2(args),
        cmd_table3(args),
    ]
    return ("\n\n" + "=" * 72 + "\n\n").join(parts)


def _check_fix(args) -> str:
    """MapFix dry run over the faulty corpus; sets args.exit_code."""
    import json

    from .check.corpus import CORPUS, PERF_CORPUS
    from .check.static.fix import fix_differential, remediate, write_patches

    dynamic = not args.no_sim
    target = args.workload or "all"
    entries = {**CORPUS, **PERF_CORPUS}
    if target == "all":
        diff = fix_differential(dynamic=dynamic, progress=_progress)
        results = list(diff.results.values())
        args.exit_code = 0 if diff.ok else 1
        payload = diff.to_dict()
        body = diff.render()
    else:
        if target not in entries:
            raise SystemExit(
                f"unknown corpus workload {target!r}; fix mode targets the "
                f"faulty corpus: {', '.join(sorted(entries))} or 'all'")
        res = remediate(entries[target], entries[target]().name,
                        dynamic=dynamic)
        results = [res]
        args.exit_code = 0 if res.ok else 1
        payload = res.to_dict()
        body = res.render()
    if args.fix_json:
        with open(args.fix_json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.fix_json}", file=sys.stderr)
    if args.fix_out:
        written = write_patches(results, args.fix_out)
        print(f"wrote {len(written)} patch file(s) to {args.fix_out}",
              file=sys.stderr)
    if args.sarif:
        from .check.sarif import write_sarif

        write_sarif([r.report for r in results if r.report is not None],
                    args.sarif)
        print(f"wrote {args.sarif}", file=sys.stderr)
    return body


def cmd_check(args) -> str:
    """MapCheck over one bundled workload (or all); sets args.exit_code."""
    import json

    from .check import (
        check_all,
        check_named,
        merge_reports,
        render_rule_table,
        workload_names,
    )

    args.exit_code = 0
    if args.rules:
        return render_rule_table()
    if args.fix_dry_run or args.fix_out or args.fix_json:
        return _check_fix(args)
    if args.no_sim and not (args.static or args.perf or args.place):
        raise SystemExit("--no-sim requires --static, --perf or --place")
    target = args.workload or "all"
    # recording + 3 differential runs per workload: TEST fidelity keeps
    # `check all` in CI territory
    fidelity = Fidelity.TEST
    static = args.static
    dynamic = not args.no_sim
    if target == "all":
        reports = check_all(
            fidelity, cross_check=not args.no_cross, progress=_progress,
            jobs=args.jobs, static=static, dynamic=dynamic, perf=args.perf,
        )
    else:
        if target not in workload_names():
            raise SystemExit(
                f"unknown workload {target!r}; choose from "
                f"{', '.join(workload_names())} or 'all'"
            )
        reports = [check_named(
            target, fidelity, cross_check=not args.no_cross,
            static=static, dynamic=dynamic, perf=args.perf,
        )]
    if args.place:
        from .check.registry import make_workload
        from .check.static.place import PlaceSpec, place_report

        spec = PlaceSpec.parse(args.topology, args.placement)
        names = sorted(workload_names()) if target == "all" else [target]
        for name in names:
            rep = place_report(
                make_workload(name, fidelity), name=name, spec=spec
            )
            rep.workload = f"{name}[place:{spec.label()}]"
            reports.append(rep)
    if args.baseline:
        from .check.baseline import apply_baseline, load_baseline

        stats = apply_baseline(reports, load_baseline(args.baseline))
        print(
            f"baseline {args.baseline}: {stats['suppressed']} of "
            f"{stats['findings']} finding(s) suppressed, "
            f"{stats['stale_fingerprints']} stale fingerprint(s)",
            file=sys.stderr,
        )
    if args.write_baseline:
        from .check.baseline import write_baseline

        n = write_baseline(reports, args.write_baseline)
        print(
            f"wrote {args.write_baseline} ({n} fingerprint(s))",
            file=sys.stderr,
        )
    if any(not r.ok for r in reports):
        args.exit_code = 1
    if args.perf_json:
        from .check.static.cost import cost_differential

        names = sorted(workload_names()) if target == "all" else [target]
        cells = cost_differential(names, fidelity=fidelity)
        with open(args.perf_json, "w") as fh:
            json.dump({
                "ok": all(c.ok for c in cells),
                "cells": [{
                    "workload": c.workload,
                    "config": c.config.value,
                    "predicted": c.prediction.to_dict(),
                    "measured": c.measured,
                    "mismatches": c.mismatches,
                } for c in cells],
            }, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.perf_json}", file=sys.stderr)
        if not all(c.ok for c in cells):
            args.exit_code = 1
    if args.race_json:
        from .check.static.race import race_differential

        result = race_differential(fidelity=fidelity)
        with open(args.race_json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.race_json}", file=sys.stderr)
        print(result.render(), file=sys.stderr)
        if not result.ok:
            args.exit_code = 1
    if args.place_json:
        from .check.static.place import place_differential

        names = sorted(workload_names()) if target == "all" else [target]
        result = place_differential(names, fidelity=fidelity)
        with open(args.place_json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.place_json}", file=sys.stderr)
        # the per-cell table is large; the summary line carries the verdict
        print(result.render().splitlines()[-1], file=sys.stderr)
        if not result.ok:
            args.exit_code = 1
    if args.sarif:
        from .check.sarif import write_sarif

        write_sarif(reports, args.sarif)
        print(f"wrote {args.sarif}", file=sys.stderr)
    if args.json:
        return json.dumps([r.to_dict() for r in reports], indent=2)
    parts = [r.render() for r in reports]
    if len(reports) > 1:
        parts.append(merge_reports(reports))
    return ("\n\n" + "=" * 72 + "\n\n").join(parts)


def cmd_bench(args) -> str:
    """Benchmark harness; writes BENCH.json and gates on equivalence."""
    from .experiments.bench import write_bench

    report = write_bench(
        args.bench_json,
        quick=args.quick,
        jobs=args.jobs if args.jobs and args.jobs > 1 else 4,
        progress=_progress,
        only=args.only,
        history_dir=args.bench_history,
    )
    print(f"wrote {args.bench_json}", file=sys.stderr)
    args.exit_code = 0 if report.ok else 1
    return report.render()


_COMMANDS = {
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "all": cmd_all,
    "check": cmd_check,
    "bench": cmd_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of the SC'24 MI300A "
        "zero-copy paper from the simulation.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument(
        "workload", nargs="?", default=None,
        help="for 'check': bundled workload name, or 'all' (default)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="for 'check': emit the report as JSON",
    )
    parser.add_argument(
        "--no-cross", action="store_true",
        help="for 'check': skip the differential runs under the other "
        "three configurations",
    )
    parser.add_argument(
        "--rules", action="store_true",
        help="for 'check': print the MapCheck rule table and exit",
    )
    parser.add_argument(
        "--static", action="store_true",
        help="for 'check': additionally run the MapFlow static dataflow "
        "analysis (abstract interpretation of the workload source; no "
        "simulation needed for its findings)",
    )
    parser.add_argument(
        "--perf", action="store_true",
        help="for 'check': additionally run the MapCost perf lint "
        "(MC-W rules: map churn, redundant maps, fault storms, global "
        "indirection, no-op updates — static, no simulation needed)",
    )
    parser.add_argument(
        "--perf-json", default=None, metavar="FILE",
        help="for 'check': write the MapCost static-vs-simulated cost "
        "differential (predicted HSA call counts, map ops, copy bytes, "
        "fault pages per configuration) as JSON; exits 1 on any "
        "prediction mismatch",
    )
    parser.add_argument(
        "--race-json", default=None, metavar="FILE",
        help="for 'check': run the MapRace static-vs-dynamic race "
        "differential (every dynamic MC-R finding on the faulty corpus "
        "must have a static MC-S20/S21/S22 match; zero static race "
        "findings on every clean workload under all four "
        "configurations) and write it as JSON; exits 1 on any "
        "unmatched race or false-positive cell",
    )
    parser.add_argument(
        "--place", action="store_true",
        help="for 'check': additionally run the MapPlace affinity lint "
        "(MC-A rules: remote first-touch storms, cross-socket map churn, "
        "unpinned hot buffers, link-saturating shadow copies) at the "
        "--topology/--placement analysis point — static, no simulation "
        "needed",
    )
    parser.add_argument(
        "--place-json", default=None, metavar="FILE",
        help="for 'check': run the MapPlace differential (per-socket "
        "predicted counters vs. instrumented multi-socket card telemetry "
        "for every workload x config x (topology, placement) point, plus "
        "the MC-A false-positive gate on the clean registry) and write "
        "it as JSON; exits 1 on any mismatch",
    )
    parser.add_argument(
        "--topology", type=int, default=2, metavar="N",
        help="for 'check' --place: socket count of the analysis point "
        "(default: 2)",
    )
    parser.add_argument(
        "--placement", default="first-touch", metavar="SPEC",
        help="for 'check' --place: placement policy of the analysis "
        "point — first-touch, interleave, or pinned:<home> "
        "(default: first-touch)",
    )
    parser.add_argument(
        "--no-sim", action="store_true",
        help="for 'check' with --static/--perf: skip the instrumented "
        "and differential runs entirely — pure static analysis, zero "
        "simulation events",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="for 'check': suppress findings whose fingerprints appear "
        "in this baseline file (they stay in the SARIF output with a "
        "'suppressions' entry but do not fail the run)",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="for 'check': record the current findings' fingerprints as "
        "the accepted baseline",
    )
    parser.add_argument(
        "--fix-dry-run", action="store_true",
        help="for 'check': run MapFix over the faulty corpus (or one "
        "named corpus entry): synthesize remediations, verify each in a "
        "sandbox against the full rule catalog, rank by MapCost cost "
        "delta, and report — the repo itself is never modified; with "
        "--no-sim the dynamic acceptance gate is skipped",
    )
    parser.add_argument(
        "--fix-out", default=None, metavar="DIR",
        help="for 'check' fix mode: write one unified-diff patch file "
        "per remediated workload into DIR (implies --fix-dry-run)",
    )
    parser.add_argument(
        "--fix-json", default=None, metavar="FILE",
        help="for 'check' fix mode: write the corpus fix differential "
        "(statuses, verified fixes, per-config cost deltas, refusals) "
        "as JSON (implies --fix-dry-run)",
    )
    parser.add_argument(
        "--sarif", default=None, metavar="FILE",
        help="for 'check': additionally write the findings as SARIF 2.1.0 "
        "(for GitHub code scanning and SARIF viewers)",
    )
    parser.add_argument(
        "--sizes", type=_ints, default=[2, 8, 32, 128],
        help="NiO sizes for the figures (comma separated)",
    )
    parser.add_argument(
        "--threads", type=_ints, default=[1, 2, 4, 8],
        help="thread counts for fig3 (comma separated)",
    )
    parser.add_argument("--reps", type=int, default=4, help="repetitions")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for experiment fan-out (0 = one per CPU); "
        "results are identical for any value",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="for fig3/fig4/table2: serve unchanged experiment cells from "
        "the content-addressed on-disk cache (composes with --jobs; a "
        "warm rerun performs zero simulations)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache",
        help="cell-cache directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--bench-json", default="BENCH.json",
        help="for 'bench': where to write the JSON results",
    )
    parser.add_argument(
        "--only", default=None, metavar="TIER",
        choices=("scheduler", "pagetable", "meso", "static"),
        help="for 'bench': run a single tier (scheduler|pagetable|meso|"
        "static) instead of all of them",
    )
    parser.add_argument(
        "--bench-history", default="benchmarks/history", metavar="DIR",
        help="for 'bench': directory receiving a timestamped copy of "
        "every report (empty string disables the history write)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="scaled-down fidelity/repetitions for smoke runs",
    )
    parser.add_argument("--out", default=None, help="write report to a file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.exit_code = 0
    report = _COMMANDS[args.command](args)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(report)
    return args.exit_code
