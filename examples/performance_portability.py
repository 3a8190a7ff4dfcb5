#!/usr/bin/env python3
"""Performance portability: one application, three deployments.

§IV.C makes Implicit Zero-Copy "the performance portable solution for
applications that are optimized for discrete GPUs": the *same binary*
runs as Copy on a discrete GPU and as zero-copy on an APU, with no source
changes — while an application compiled with the ``unified_shared_memory``
requirement can only deploy where unified memory is supported.

This example takes one QMCPack-style workload and deploys it to:

1. a discrete GPU (PCIe copies, Copy configuration selected);
2. an MI300A APU run with XNACK disabled (legacy Copy selected);
3. the same APU with XNACK enabled (Implicit Zero-Copy auto-selected).

The runtime configuration is chosen by the same environment-inspection
logic the paper describes (HSA_XNACK, APU detection) — the application
body never changes.

Run:  python examples/performance_portability.py
"""

from repro import ApuSystem, CostModel, OpenMPRuntime, RunEnvironment, select_config
from repro.workloads import Fidelity, QmcPackNio

DEPLOYMENTS = [
    (
        "discrete GPU (PCIe)",
        CostModel.discrete_gpu(),
        RunEnvironment(is_apu=False, hsa_xnack=False),
    ),
    (
        "MI300A, HSA_XNACK=0",
        CostModel(),
        RunEnvironment(is_apu=True, hsa_xnack=False),
    ),
    (
        "MI300A, HSA_XNACK=1",
        CostModel(),
        RunEnvironment(is_apu=True, hsa_xnack=True),
    ),
]


def main():
    print("One OpenMP application (QMCPack proxy, S8, 4 host threads)")
    print("deployed unchanged to three environments:\n")
    header = f"{'deployment':<24}{'selected configuration':<26}{'time (s)':>10}"
    print(header)
    print("-" * len(header))
    times = {}
    for name, cost, env in DEPLOYMENTS:
        config = select_config(env)
        workload = QmcPackNio(size=8, n_threads=4, fidelity=Fidelity.BENCH)
        runtime = OpenMPRuntime(ApuSystem(cost=cost), config)
        result = runtime.run_workload(workload)
        times[name] = result.elapsed_us
        print(f"{name:<24}{config.label:<26}{result.elapsed_us / 1e6:>10.2f}")

    print()
    apu_copy = times["MI300A, HSA_XNACK=0"]
    apu_zc = times["MI300A, HSA_XNACK=1"]
    print(f"APU speedup from flipping HSA_XNACK on: {apu_copy / apu_zc:.2f}x")
    print("No source changes, no rebuild — the runtime detected the APU and")
    print("toggled zero-copy (§IV.C).  The same binary still runs correctly")
    print("on the discrete system, where mapping means copying.")


if __name__ == "__main__":
    main()
