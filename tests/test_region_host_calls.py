"""Fused-vs-reference differential of one target region's host path.

A kernel launch is one ``_Kernel`` object whose bound methods are its
chain's steps, in all three forms: run in the host's frame
(``Environment._inline``), its charge refused and queued as ``done``, or
a ``nowait`` dispatch.  XNACK service finds resident ranges with no gap
and hands every launch that faults on nothing one shared
``FaultResult``.  An Eager map-enter probes the GPU table with the
single-range ``Kfd.resident`` and takes the ``mm_lock`` path only when a
page is missing.  Each case below
runs on both engines and compares every observable, the detailed HSA
rows, the kernel records and the event count after each region; it
counts the branches it takes, so none of them can silently go dead.
The kernel-record stream and ``hsa_trace.as_rows()`` of lbm under three
configurations are pinned to digests of the code these paths replaced.
"""

import hashlib
from collections import Counter
from functools import partial

import numpy as np
import pytest
from oracles import run_observables

import repro.driver.kfd as kfd_module
from repro.core import RuntimeConfig
from repro.driver import Kfd
from repro.experiments.runner import execute
from repro.hsa.api import HsaRuntime, _Kernel
from repro.memory import PAGE_2M
from repro.omp import MapClause, MapKind
from repro.omp.api import OmpThread
from repro.sim import Environment, ReferenceEnvironment
from repro.workloads.base import Fidelity, Workload
from repro.workloads.specaccel.lbm import Lbm404


class _Regions(Workload):
    """Two threads mixing ``nowait`` and synchronous regions over buffers
    that are first touched inside the loop."""

    n_threads = 2

    def make_body(self):
        out = self.outputs

        def body(th, tid):
            name = f"x{tid}"
            x = yield from th.alloc(name, 3 * PAGE_2M, payload=np.zeros(8))
            yield from th.target_enter_data([MapClause(x, MapKind.TO)])
            for i in range(3):
                y = yield from th.alloc(f"y{tid}", 2 * PAGE_2M, payload=np.ones(4))
                handle = yield from th.target(
                    "async", 40.0 + 10.0 * i, maps=[MapClause(x, MapKind.ALLOC)],
                    fn=lambda a, g: a[name].__iadd__(1.0), nowait=True)
                yield from th.target(
                    "sync", 20.0, maps=[MapClause(y, MapKind.TOFROM)],
                    fn=lambda a, g: a[f"y{tid}"].__imul__(2.0))
                yield from th.wait(handle)
                yield from th.free(y)
            yield from th.target_exit_data([MapClause(x, MapKind.FROM)])
            out.put(name, x.payload.copy())

        return body


def _counting(monkeypatch):
    """Patch the region's host path to count the branches it takes."""
    branches = Counter()
    inline = Environment._inline

    def counted_inline(self, res, start):
        ran = inline(self, res, start)
        if isinstance(getattr(start, "__self__", None), _Kernel):
            branches["kernel predicate failed" if ran is None else
                     "kernel inline" if ran[0] else "kernel charge refused"] += 1
        return ran

    dispatch = HsaRuntime.dispatch_kernel

    def counted_dispatch(self, *args, **kwargs):
        branches["kernel nowait"] += 1
        return dispatch(self, *args, **kwargs)

    service = Kfd.service_xnack_faults

    def counted_service(self, ranges):
        resident = sum(1 for rng in ranges if self.gpu_pt.resident(rng))
        fr = service(self, ranges)
        branches["xnack resident range"] += resident
        branches["shared zero-fault result" if fr is kfd_module._NO_FAULTS
                 else "fresh fault result"] += 1
        return fr

    probe = Kfd.resident

    def counted_probe(self, rng):
        answer = probe(self, rng)
        branches["eager probe: resident" if answer else "eager probe: missing"] += 1
        return answer

    prefault = Kfd.prefault

    def counted_prefault(self, rng):
        branches["eager prefault"] += 1
        return prefault(self, rng)

    monkeypatch.setattr(Environment, "_inline", counted_inline)
    monkeypatch.setattr(HsaRuntime, "dispatch_kernel", counted_dispatch)
    monkeypatch.setattr(Kfd, "service_xnack_faults", counted_service)
    monkeypatch.setattr(Kfd, "resident", counted_probe)
    monkeypatch.setattr(Kfd, "prefault", counted_prefault)
    return branches


def _run(monkeypatch, factory, config, env_cls, seed, noise):
    """One run's observables and the branches its regions took."""
    branches = _counting(monkeypatch)
    events = []
    target = OmpThread.target

    def counted_target(self, *args, **kwargs):
        rec = yield from target(self, *args, **kwargs)
        events.append((self.tid, self.env.processed_events))
        return rec

    monkeypatch.setattr(OmpThread, "target", counted_target)
    workload = factory()
    run = execute(workload, config, seed=seed, noise=noise, env_cls=env_cls,
                  kernel_trace=True, detailed_trace=True)
    monkeypatch.undo()
    observed = (
        run_observables(run, workload),
        [(e.name, e.start_us, e.duration_us, e.tag) for e in run.hsa_trace.events],
        run.kernel_trace.records,
        run.hsa_trace.as_rows(),
        events,
    )
    return observed, branches


_LBM = partial(Lbm404, Fidelity.TEST)
_REGIONS = partial(_Regions, Fidelity.TEST)

#: name -> (workload factory, configuration, noise, branches it must take)
CASES = {
    "lbm-copy": (_LBM, RuntimeConfig.COPY, True,
                 {"kernel charge refused", "shared zero-fault result"}),
    "lbm-izc": (_LBM, RuntimeConfig.IMPLICIT_ZERO_COPY, True,
                {"kernel inline", "xnack resident range", "shared zero-fault result",
                 "fresh fault result"}),
    "lbm-eager": (_LBM, RuntimeConfig.EAGER_MAPS, True,
                  {"kernel inline", "eager probe: resident", "eager probe: missing",
                   "xnack resident range", "shared zero-fault result"}),
    "regions-izc": (_REGIONS, RuntimeConfig.IMPLICIT_ZERO_COPY, False,
                    {"kernel nowait", "kernel charge refused", "kernel predicate failed",
                     "xnack resident range", "shared zero-fault result",
                     "fresh fault result"}),
    "regions-eager": (_REGIONS, RuntimeConfig.EAGER_MAPS, True,
                      {"kernel nowait", "kernel inline", "kernel predicate failed",
                       "eager probe: resident", "eager probe: missing", "xnack resident range",
                       "shared zero-fault result"}),
}

#: sha256 of ``(kernel records, hsa_trace.as_rows())`` of lbm at TEST,
#: noisy, seed 1016, measured on the code that built a kernel's chain
#: from closures and probed Eager residency through a list
PINS = {
    RuntimeConfig.COPY: (
        "5a6194e110fa61b37e1ebc7dba4e62e341e270523c138ca318379b24364921e0",
        "5af83df41f5eaeebbf4661abf64569ce9b8bd8d3d32dbd21dbff680e55a9e93d"),
    RuntimeConfig.IMPLICIT_ZERO_COPY: (
        "fa45b3973b3085ac391d004f4d8c0638540ebdfd41a44ed2caae7932afeecc49",
        "d7ae91b4dc612ef6ead13649edb75379e352ec967a2e2dde212831759397c6f4"),
    RuntimeConfig.EAGER_MAPS: (
        "2d4a16a637e24a5cde9e0ed52745956734d9de6c43a6d26530c67797ed158cf9",
        "5985919e8be2671b36c7615280b4873e42c49eeb06ea6e79c8837319eef694fa"),
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_region_host_path_fused_vs_reference(monkeypatch, case):
    factory, config, noise, expected = CASES[case]
    fused, branches = _run(monkeypatch, factory, config, Environment, 1016, noise)
    reference, ref_branches = _run(monkeypatch, factory, config, ReferenceEnvironment,
                                   1016, noise)
    assert fused == reference
    assert fused[4], "no target region ran"
    for branch in expected:
        assert branches[branch] >= 1, (case, branch, dict(branches))
    # one probe per Eager map-enter, each followed by one prefault
    assert (branches["eager probe: resident"] + branches["eager probe: missing"]
            == branches["eager prefault"])
    driver_paths = {k: v for k, v in branches.items() if not k.startswith("kernel")}
    assert driver_paths == {k: v for k, v in ref_branches.items()
                            if not k.startswith("kernel")}
    assert ref_branches["kernel nowait"] == branches["kernel nowait"]


@pytest.mark.parametrize("config", sorted(PINS, key=lambda c: c.name))
def test_lbm_kernel_records_and_hsa_rows_pinned(config):
    run = execute(_LBM(), config, seed=1016, noise=True, kernel_trace=True)
    records = [tuple(r) for r in run.kernel_trace.records]
    assert (_sha(records), _sha(run.hsa_trace.as_rows())) == PINS[config]
