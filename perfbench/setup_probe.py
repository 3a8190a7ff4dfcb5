"""One set-up sample: import the program and build a workload, then exit.

``run.py`` times this script as a fresh process, from start to exit:
    python3 perfbench/setup_probe.py <workload> <seed>

The process ends with ``os._exit`` right after the build, so interpreter
teardown, which is not set-up, stays out of the timed span.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

if __name__ == "__main__":
    import cases

    cases.make(sys.argv[1], int(sys.argv[2])).build()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)
