#!/usr/bin/env python3
"""Porting advisor: should *your* application change anything on MI300A?

The paper's second research question (§V): "Do I have to rewrite or
re-optimize/tune my application when moving to an APU?"  This example
shows how to answer it for an application you characterize yourself:
describe your app's offload pattern, and the advisor

1. runs **MapCheck** (``repro.check``) over the profile — the mapping
   sanitizer + portability lint — and reports any defect that would make
   the answer configuration-dependent (a program that only works because
   XNACK papers over a missing map clause ports *from* the APU badly);
2. runs **MapCost** (``repro.check.static.cost``) — the symbolic cost
   predictor — and cites the predicted per-configuration HSA call
   counts, copy bytes and fault pages *before any simulation runs*,
   plus any MC-W perf-lint pattern (map churn, fault storms, ...);
3. runs **MapFix** (``repro.check.static.fix``) — suggested
   remediations: each fix was applied to a scratch copy of this file,
   re-extracted and re-verified against the full rule catalog before
   being printed, and carries MapCost's predicted per-configuration
   cost delta; defects MapFix cannot mend mechanically come back as
   explicit refusals instead of guesses;
4. runs **MapPlace** (``repro.check.static.place``) — ranks candidate
   page placements (first-touch, interleave, pinned) for a 2-socket
   card by the statically predicted remote-link traffic, so you know
   the affinity story before buying the bigger card;
5. simulates the profile under every runtime configuration and reports
   which one wins and what the dominant overhead is.

Four canned profiles are analyzed (a streaming solver, an
allocation-churning solver, a first-touch-heavy Monte Carlo code, and a
lift-and-shift port that dropped its final copy-back); edit
``PROFILES`` to model your own.

Run:  python examples/porting_advisor.py
"""

from dataclasses import dataclass

import numpy as np

from repro import ALL_CONFIGS, MapClause, MapKind, RuntimeConfig
from repro.check import check_workload
from repro.experiments import execute
from repro.memory import GIB, KIB
from repro.workloads.base import Fidelity, Workload


@dataclass
class AppProfile:
    """A coarse offload characterization of an application."""

    name: str
    working_set_bytes: int       #: data mapped for the run
    kernels: int                 #: target launches
    kernel_us: float             #: mean kernel duration
    per_kernel_transfer_bytes: int  #: always-mapped parameter/result bytes
    remap_cycle: int             #: remap working set every N kernels (0=never)
    gpu_initializes_data: bool   #: first touch happens in a target region


PROFILES = [
    AppProfile("streaming-solver", 4 * GIB, 2000, 3000.0, 64 * KIB, 0, False),
    AppProfile("churning-solver", 3 * GIB, 1000, 2000.0, 64 * KIB, 10, False),
    AppProfile("mc-initializer", 8 * GIB, 3000, 400.0, 256 * KIB, 0, True),
]


class ProfiledApp(Workload):
    """Synthesizes an offload stream from an :class:`AppProfile`."""

    def __init__(self, profile: AppProfile):
        super().__init__(Fidelity.FULL)
        self.name = profile.name
        self.profile = profile

    def make_body(self):
        p = self.profile
        outputs = self.outputs

        def body(th, tid):
            data = yield from th.alloc("data", p.working_set_bytes,
                                       payload=np.zeros(64))
            par = yield from th.alloc("par", p.per_kernel_transfer_bytes,
                                      payload=np.ones(4))
            kind = MapKind.ALLOC if p.gpu_initializes_data else MapKind.TO
            yield from th.target_enter_data([MapClause(data, kind)])
            for k in range(p.kernels):
                if p.remap_cycle and k and k % p.remap_cycle == 0:
                    yield from th.target_exit_data(
                        [MapClause(data, MapKind.DELETE)]
                    )
                    yield from th.target_enter_data([MapClause(data, kind)])
                yield from th.target(
                    "step", p.kernel_us,
                    maps=[MapClause(data, MapKind.ALLOC),
                          MapClause(par, MapKind.TO, always=True)],
                    fn=lambda a, g: a["data"].__iadd__(g_scale(a)),
                )
            yield from th.target_exit_data([MapClause(data, MapKind.FROM)])
            outputs.put("data", data.payload.copy())

        def g_scale(a):
            return a["par"][0] * 0.001

        return body


class PortedLeakApp(Workload):
    """A lift-and-shift port: the final copy-back was dropped along with
    the ``cudaMemcpy`` calls it replaced — exactly the mechanical defect
    MapFix can mend (and verify) on its own."""

    def __init__(self, profile: AppProfile):
        super().__init__(Fidelity.FULL)
        self.name = profile.name
        self.profile = profile

    def make_body(self):
        p = self.profile
        outputs = self.outputs

        def body(th, tid):
            data = yield from th.alloc("data", p.working_set_bytes,
                                       payload=np.zeros(64))
            yield from th.target_enter_data([MapClause(data, MapKind.TO)])
            for _ in range(p.kernels):
                yield from th.target(
                    "step", p.kernel_us,
                    maps=[MapClause(data, MapKind.ALLOC)],
                    fn=lambda a, g: a["data"].__iadd__(0.001),
                )
            outputs.put("data", data.payload.copy())

        return body


#: the profile driving :class:`PortedLeakApp` in ``main``
LIFTED_PORT = AppProfile("lifted-port", GIB, 500, 1000.0, 64 * KIB, 0, False)


def lint_profile(profile: AppProfile, app_cls=ProfiledApp) -> bool:
    """MapCheck pass: is the profile's mapping portable at all?

    The differential runs are skipped (``cross_check=False``) because the
    advisor itself runs all four configurations right after — the timing
    table doubles as the confirmation evidence.
    """
    report = check_workload(
        lambda: app_cls(profile), profile.name, cross_check=False
    )
    if report.ok:
        print("  mapcheck: clean — the timing comparison below is "
              "apples-to-apples")
        return True
    print(f"  mapcheck: {len(report.findings)} finding(s) — fix these "
          "BEFORE trusting any timing comparison:")
    for f in report.sorted_findings():
        broken = ", ".join(c.label for c in f.breaks_under) or "none"
        print(f"    [{f.severity.value}] {f.rule_id} {f.rule.title} "
              f"({f.buffer}): breaks under {broken}")
    if report.aborted:
        print(f"    instrumented run aborted: {report.aborted}")
    return False


def predict_profile(profile: AppProfile, app_cls=ProfiledApp) -> None:
    """MapCost static phase: cite the predicted per-config costs.

    Everything printed here comes from the symbolic cost walk over the
    extracted IR — zero simulation events.  The timing table printed
    afterwards is the measured confirmation (the two agree bit-exactly
    on HSA call counts for resolvable patterns; see
    ``repro check --differential cost``).
    """
    from repro.check.static.cost import CostEnv, predict_costs
    from repro.check.static.rules import analyze_workload
    from repro.experiments import render_cost_table

    # one extraction feeds both the cost walk and the perf lint
    perf, ir = analyze_workload(app_cls(profile), profile.name,
                                flow=False, perf=True)
    if ir is None:
        print(f"  mapcost: {perf.aborted}; skipping prediction")
        return
    predictions = {
        c: predict_costs(ir, CostEnv.for_config(c)) for c in ALL_CONFIGS
    }
    table = render_cost_table(profile.name, predictions)
    print("\n".join("  " + line for line in table.splitlines()))
    for f in perf.sorted_findings():
        broken = ", ".join(c.label for c in f.breaks_under) or "none"
        print(f"  perf-lint {f.rule_id} {f.rule.title} ({f.buffer}): "
              f"pays the overhead under {broken}")


def rank_placements(profile: AppProfile, app_cls=ProfiledApp) -> None:
    """MapPlace phase: which page placement minimizes link traffic on a
    multi-socket card?

    Candidate placements are ranked by the *predicted* remote kernel
    bytes (then remote fault pages) under Implicit Zero-Copy on a
    2-socket card — pure static analysis over the same extracted IR,
    zero simulation events.  The differential
    (``repro check --differential place``) pins these predictions against the
    instrumented card telemetry.
    """
    from repro.check.static.cost import CostEnv
    from repro.check.static.extract import ExtractionError, extract_workload
    from repro.check.static.place import PlaceSpec, predict_place
    from repro.experiments import render_place_table

    try:
        ir = extract_workload(app_cls(profile), name=profile.name)
    except ExtractionError as exc:
        print(f"  mapplace: extraction failed ({exc}); skipping ranking")
        return
    env = CostEnv.for_config(RuntimeConfig.IMPLICIT_ZERO_COPY)
    candidates = [
        PlaceSpec(2, "first-touch"),
        PlaceSpec(2, "interleave"),
        PlaceSpec(2, "pinned", home=0),
        PlaceSpec(2, "pinned", home=1),
    ]
    ranked = sorted(
        ((spec, predict_place(ir, env, spec)) for spec in candidates),
        key=lambda item: (
            item[1].interval("remote_kernel_bytes").lo,
            item[1].interval("remote_kernel_bytes").hi is None,
            item[1].interval("remote_kernel_bytes").hi or 0,
            item[1].interval("remote_fault_pages").lo,
        ),
    )
    table = render_place_table(profile.name, ranked)
    print("\n".join("  " + line for line in table.splitlines()))
    best, _ = ranked[0]
    print(f"  mapplace: place pages '{best.label()}' when running this "
          "profile on a multi-socket card")


def remediate_profile(profile: AppProfile, app_cls=ProfiledApp) -> None:
    """MapFix phase: suggested remediations, sandbox-verified.

    Each suggestion was applied to a scratch copy of this very file,
    re-extracted and re-checked against the full rule catalog before
    being printed — the advisor never suggests an edit it could not
    verify.  The dynamic acceptance gate is skipped (``dynamic=False``)
    because the advisor's own timing table runs all four configurations
    anyway.  ``rebuild`` re-instantiates the profiled app from the
    patched module (the class takes the profile as an argument).
    """
    from repro.check.static.fix import remediate

    res = remediate(
        lambda: app_cls(profile), profile.name, dynamic=False,
        rebuild=lambda module: getattr(module, app_cls.__name__)(profile),
    )
    if res.status == "clean":
        print("  mapfix: no remediation needed")
        return
    for i, fix in enumerate(res.ranked_fixes(), 1):
        print(f"  mapfix suggestion {i}: [{fix.rule_id} {fix.buffer!r}] "
              f"{fix.description}")
        print(f"    predicted cost delta — {fix.delta_summary()}")
    for r in res.refusals:
        print(f"  mapfix refused: {r.render()}")
    if res.residual:
        print("  mapfix residual (needs a human): " + ", ".join(res.residual))


def advise(profile: AppProfile, app_cls=ProfiledApp) -> None:
    print(f"\n=== {profile.name} ===")
    portable = lint_profile(profile, app_cls)
    predict_profile(profile, app_cls)
    remediate_profile(profile, app_cls)
    rank_placements(profile, app_cls)
    times = {}
    details = {}
    for config in ALL_CONFIGS:
        res = execute(app_cls(profile), config)
        times[config] = res.elapsed_us
        details[config] = res.ledger
    best = min(times, key=times.get)
    base = times[RuntimeConfig.COPY]
    print(f"  {'configuration':<24}{'time (s)':>10}{'vs Copy':>9}"
          f"{'MM (s)':>9}{'MI (s)':>9}")
    for config in ALL_CONFIGS:
        led = details[config]
        marker = "  <-- best" if config is best else ""
        print(
            f"  {config.label:<24}{times[config] / 1e6:>10.2f}"
            f"{base / times[config]:>9.2f}"
            f"{led.mm_us / 1e6:>9.2f}{led.mi_us / 1e6:>9.2f}{marker}"
        )
    led = details[best]
    if not portable:
        print("  advice: resolve the MapCheck findings first — a mapping")
        print("  defect makes per-configuration timings incomparable (the")
        print("  configs are not computing the same thing).")
    elif best is RuntimeConfig.COPY:
        print("  advice: keep Copy semantics OR prefer Eager Maps — your app")
        print("  first-touches big memory on the GPU; plain zero-copy will")
        print("  absorb XNACK replay in your kernels.")
    elif led.prefault_us > 0:
        print("  advice: enable Eager Maps (OMPX eager prefaulting): your")
        print("  mapping pattern re-touches fresh pages.")
    else:
        print("  advice: run as-is — Implicit Zero-Copy is automatic on an")
        print("  APU with XNACK and your discrete-GPU optimizations do not")
        print("  hurt (§V conclusion).")


def main():
    print("Porting advisor — simulating your offload profile on MI300A")
    for profile in PROFILES:
        advise(profile)
    advise(LIFTED_PORT, app_cls=PortedLeakApp)


if __name__ == "__main__":
    main()
