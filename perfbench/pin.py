"""Re-pin the correctness digests in ``pins.json`` from the current code.

Run from the repository root, only when simulated results are meant to
change (a performance change must leave every digest as pinned)::

    python3 perfbench/pin.py [workload ...]

Each seed variant of each named workload (default: all) runs one pass.
``mapcheck`` results do not depend on the seed, so one pass pins every
variant.
"""

import json
import os
import sys

from run import PINS, prepare_checkout


def main(names):
    prepare_checkout(os.getcwd())
    import cases

    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as fh:
            pins = json.load(fh)
    for name in names or cases.WORKLOADS:
        variants = 1 if name == "mapcheck" else cases.SEED_VARIANTS
        by_seed = {}
        for seed in range(variants):
            case = cases.make(name, seed)
            case.build()
            result = case.run_pass(cases.Context())
            if result.error is not None:
                sys.exit(f"{name} seed {seed}: {result.error}")
            by_seed[str(case.seed0)] = {op.key: op.digest for op in result.ops}
            print(f"{name} seed0={case.seed0}: {len(result.ops)} ops, "
                  f"{result.wall_s:.1f} s", flush=True)
        if variants == 1:
            only = next(iter(by_seed.values()))
            by_seed = {str(cases.seed0_of(s)): only
                       for s in range(cases.SEED_VARIANTS)}
        pins[name] = by_seed
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
