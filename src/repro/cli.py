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
                          [--sarif FILE] [--topology N]
                          [--placement SPEC] [--baseline FILE]
                          [--write-baseline FILE] [--jobs N]
                          [--differential {flow,cost,place,all}]
                          [--fix-dry-run] [--fix-out DIR] [--fix-json FILE]

``check`` runs the MapCheck sanitizer/lint over a bundled workload (or
all of them) and exits 1 if any finding survives — suitable for CI.
``--static`` adds the MapFlow static dataflow analysis (with MapRace);
``--perf`` adds the MapCost perf lint (MC-W rules); ``--place`` adds the
MapPlace affinity lint (MC-A rules) at the ``--topology N`` /
``--placement SPEC`` analysis point (placement specs: ``first-touch``,
``interleave``, ``pinned:<home>``); with ``--no-sim`` the static
analyses are the only ones and no simulation runs at all.  ``--sarif``
writes the findings as SARIF 2.1.0.  ``--baseline FILE`` suppresses
findings whose fingerprints were accepted by an earlier
``--write-baseline FILE`` run (suppressed findings stay in SARIF,
carrying ``suppressions``).  For ``check all``, ``--jobs`` fans the
workloads out over the experiments' process pool with byte-identical
output.

``--differential KIND`` switches ``check`` into differential mode and
validates the static analyses against simulation: ``flow`` (every
in-scope dynamic finding on the faulty corpus, races included, has its
static match; zero static findings on the clean registry), ``cost``
(predicted HSA call and map-op counts bit-exact against telemetry,
byte/page counters inside the predicted intervals) and ``place`` (the
same contract per socket of a multi-socket card for every topology x
placement point, plus zero MC-A findings on the clean registry), or
``all`` three.  A named workload restricts the cost and place cells.
It prints each differential's report (``--json``: one object keyed by
kind) and exits 1 on any failure.

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
the cell.
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


def cmd_fig3(args, grid=None) -> str:
    return render_fig3(grid if grid is not None else _fig_grid(args, tuple(args.threads)))


def cmd_fig4(args, grid=None) -> str:
    return render_fig4(grid if grid is not None else _fig_grid(args, (8,)), threads=8)


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
    # Fig 3's grid holds every Fig 4 cell, with the same seeds, when it has 8 threads
    grid = _fig_grid(args, tuple(args.threads)) if 8 in args.threads else None
    parts = [
        cmd_fig3(args, grid),
        cmd_fig4(args, grid),
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


def _check_differential(args, target: str) -> str:
    """Static-vs-simulated differentials; sets args.exit_code."""
    import json

    from .check.static import static_dynamic_differential
    from .check.static.cost import cost_differential
    from .check.static.place import place_differential

    names = None if target == "all" else [target]
    runs = {
        "flow": static_dynamic_differential,
        "cost": lambda: cost_differential(names),
        "place": lambda: place_differential(names),
    }
    kinds = list(runs) if args.differential == "all" else [args.differential]
    results = {}
    for kind in kinds:
        _progress(f"{kind} differential")
        results[kind] = runs[kind]()
    args.exit_code = 0 if all(r.ok for r in results.values()) else 1
    if args.json:
        return json.dumps({k: r.to_dict() for k, r in results.items()},
                          indent=2)
    return ("\n\n" + "=" * 72 + "\n\n").join(
        r.render() for r in results.values())


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
    target = args.workload or "all"
    if target != "all" and target not in workload_names():
        raise SystemExit(
            f"unknown workload {target!r}; choose from "
            f"{', '.join(workload_names())} or 'all'"
        )
    if args.differential:
        return _check_differential(args, target)
    if args.no_sim and not (args.static or args.perf or args.place):
        raise SystemExit("--no-sim requires --static, --perf or --place")
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


_COMMANDS = {
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "all": cmd_all,
    "check": cmd_check,
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
        "--place", action="store_true",
        help="for 'check': additionally run the MapPlace affinity lint "
        "(MC-A rules: remote first-touch storms, cross-socket map churn, "
        "unpinned hot buffers, link-saturating shadow copies) at the "
        "--topology/--placement analysis point — static, no simulation "
        "needed",
    )
    parser.add_argument(
        "--differential", default=None,
        choices=("flow", "cost", "place", "all"),
        help="for 'check': run a static-vs-simulated differential instead "
        "of the checks — flow (static/dynamic finding match on the faulty "
        "corpus, races included, zero static findings on the clean "
        "registry), cost (predicted vs. measured HSA/map-op/byte/page "
        "counters per configuration), place (the same per socket of a "
        "multi-socket card for every topology x placement point, plus the "
        "MC-A false-positive gate) or all; exits 1 on any failure",
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
