"""Which entry points of the program belong to which layer.

:func:`install` wraps, from outside the program, the public entry points
of each layer in :mod:`spans` spans:

* ``sim``: ``Environment.run`` and ``Mutex.acquire``/``release``.  Every
  simulated process is created through ``Process.__init__``, which is
  patched to wrap the process generator in a span of the layer whose
  source file defines it (thread bodies: ``workloads``; kernel and copy
  processes: ``hsa``; the runtime's main process: ``omp``).  What is
  left of ``run`` after its children is the scheduler's own time.
* ``hsa``: the ``HsaRuntime`` methods.
* ``omp``: the ``OmpThread``, ``OpenMPRuntime`` and ``MemoryManager``
  methods.
* ``core``: the ``DataPolicy`` subclass methods and ``ApuSystem``.
* ``memory``: ``PageTable``, ``PhysicalMemory`` and ``OsAllocator``.
* ``driver``: the ``Kfd`` methods.
* ``workloads``: the kernel callables passed to ``OmpThread.target``,
  registry workload construction and the thread-body processes.
* ``trace``: the ``HsaTrace``/``KernelTrace``/``RunLedger`` recorders.
* ``experiments``: ``execute`` and the figure/table drivers.
* ``check`` and ``check.static.{extract,interp,cost,race,place,fix}``:
  ``check_all``/``check_named``/``check_workload`` and one entry point
  per static phase.

Only public methods (and ``__init__``) are entry points, plus the
kernel-completion callback ``OpenMPRuntime._on_kernel_complete``: a
private helper is called from its own class, so its time is its layer's
either way.  Wrapped functions keep their behaviour: arguments, return
values and exceptions pass through, and returned generators are wrapped
so each resume is timed.  Workload classes are never wrapped, because the
static extractor reads their methods' source and globals.
"""

from __future__ import annotations

import os
from types import GeneratorType
from typing import Dict, List

from spans import Patcher, Tracer, traced_function, traced_generator, wrap_generator

#: every layer a traced run reports self time for
LAYERS = (
    "sim", "hsa", "omp", "core", "memory", "driver", "workloads", "trace",
    "experiments", "check",
    "check.static.extract", "check.static.interp", "check.static.cost",
    "check.static.race", "check.static.place", "check.static.fix",
)
STATIC_PHASES = ("extract", "interp", "cost", "race", "place", "fix")
#: layers a simulation workload / ``mapcheck`` must reach
SIM_LAYERS = ("sim", "hsa", "omp", "core", "memory", "driver", "workloads",
              "trace", "experiments")
MAPCHECK_LAYERS = tuple(layer for layer in LAYERS if layer != "experiments")


def layer_of_file(path: str, root: str) -> str:
    """Layer of a source file under the ``repro`` package root."""
    parts = os.path.relpath(path, root).split(os.sep)
    pkg = parts[0]
    if pkg == "check":
        if len(parts) > 2 and parts[1] == "static":
            phase = parts[2][:-3] if parts[2].endswith(".py") else parts[2]
            if phase in STATIC_PHASES:
                return f"check.static.{phase}"
        return "check"
    if pkg == "multisocket":
        return "core"
    return pkg if pkg in LAYERS else "experiments"


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every layer's entry points (see the module docstring)."""
    import repro
    import repro.check.registry as registry
    import repro.check.runner as runner
    import repro.check.static.cost.rules as cost_rules
    import repro.check.static.cost.walker as cost_walker
    import repro.check.static.extract as extract
    import repro.check.static.fix.differential as fix_diff
    import repro.check.static.fix.engine as fix_engine
    import repro.check.static.interp as interp
    import repro.check.static.place.rules as place_rules
    import repro.check.static.race.rules as race_rules
    import repro.core.policies as policies
    import repro.experiments.figures as figures
    import repro.experiments.runner as exp_runner
    import repro.experiments.tables as tables
    from repro.core.system import ApuSystem
    from repro.driver.kfd import Kfd
    from repro.hsa.api import HsaRuntime
    from repro.memory.os_alloc import OsAllocator
    from repro.memory.pagetable import PageTable
    from repro.memory.physical import PhysicalMemory
    from repro.omp.api import OmpThread
    from repro.omp.memmgr import MemoryManager
    from repro.omp.runtime import OpenMPRuntime
    from repro.sim.core import Environment, Process
    from repro.sim.resources import Mutex
    from repro.trace.hsa_trace import HsaTrace
    from repro.trace.kernel_trace import KernelTrace, RunLedger

    root = os.path.dirname(os.path.abspath(repro.__file__))

    def methods(cls, layer, counter=None, names=None, required=True):
        def make(name, fn):
            count = counter if name != "__init__" else None
            return traced_function(tracer, layer, fn, counter=count)
        if patcher.wrap_methods(cls, make, names) == 0 and required:
            raise RuntimeError(f"no entry points found on {cls.__name__}")

    def function(module, name, layer, counter=None):
        patcher.wrap_function(
            module, name,
            lambda fn: traced_function(tracer, layer, fn, counter=counter))

    # sim: the scheduler loop and the host-side locks
    methods(Environment, "sim", names=["run"])
    methods(Mutex, "sim", counter="sim.mutex_acquires", names=["acquire"])
    methods(Mutex, "sim", names=["release"])
    layer_cache: Dict[object, str] = {}
    process_init = Process.__init__

    def traced_process_init(self, env, gen, name=""):
        if type(gen) is GeneratorType and gen.gi_code is not traced_generator.__code__:
            code = gen.gi_code
            layer = layer_cache.get(code)
            if layer is None:
                layer = layer_cache[code] = layer_of_file(code.co_filename, root)
            gen = wrap_generator(tracer, layer, gen)
        process_init(self, env, gen, name)

    patcher.set(Process, "__init__", traced_process_init)

    methods(HsaRuntime, "hsa", counter="hsa.calls")
    for cls in (OmpThread, OpenMPRuntime, MemoryManager):
        methods(cls, "omp")
    # the kernel-completion callback the HSA layer calls back into
    methods(OpenMPRuntime, "omp", names=["_on_kernel_complete"])
    target = OmpThread.target  # already wrapped: add the kernel callable

    def traced_target(self, name, compute_us, maps=(), fn=None, *args, **kw):
        if fn is not None:
            fn = traced_function(tracer, "workloads", fn)
        return target(self, name, compute_us, maps, fn, *args, **kw)

    patcher.set(OmpThread, "target", traced_target)
    methods(ApuSystem, "core")
    for cls in _subclasses(policies.DataPolicy):
        methods(cls, "core", required=cls is policies.DataPolicy)
    for cls in (PageTable, PhysicalMemory, OsAllocator):
        methods(cls, "memory", counter="memory.calls")
    methods(Kfd, "driver", counter="driver.calls")
    for cls in (HsaTrace, KernelTrace, RunLedger):
        methods(cls, "trace")
    function(registry, "make_workload", "workloads")

    function(exp_runner, "execute", "experiments")
    function(figures, "collect_qmcpack_grid", "experiments")
    function(tables, "table2_specaccel", "experiments")

    for name in ("check_all", "check_named", "check_workload"):
        function(runner, name, "check")
    function(extract, "extract_workload", "check.static.extract",
             counter="check.static.extract.calls")
    function(interp, "analyze_ir", "check.static.interp")
    function(cost_walker, "predict_costs", "check.static.cost")
    function(cost_rules, "perf_report", "check.static.cost")
    function(race_rules, "race_findings", "check.static.race")
    function(place_rules, "place_report", "check.static.place")
    function(fix_engine, "remediate", "check.static.fix")
    function(fix_diff, "fix_differential", "check.static.fix")


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out
