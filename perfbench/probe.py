"""One set-up measurement, in a fresh interpreter.

Usage, from the repository root::

    python3 perfbench/probe.py <workload> <seed>

Prints the seconds spent importing what the workload needs and building
its first testbed (or file list).  Interpreter start-up is not counted.
``run.py`` starts several probes and reports their median as ``setup_s``.
"""

from time import perf_counter

STARTED = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]]
    workload.setup(workload.items(int(sys.argv[2]))[0])
    print(repr(perf_counter() - STARTED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
