"""The repo benchmark: one command, four workloads, every metric.

    python3 benchmarks/suite/run.py --workload warm_solve --seed 1 --seconds 25 --trace 0
    python3 benchmarks/suite/run.py --seed 1            # every workload, one subprocess each

See ``harness.py`` for the options and the output.  The code lives
there because the worker processes ``run_procs`` spawns import this
file as their main module: procs_solve should time the imports repro's
workers need, not the benchmark's.
"""

import sys

if __name__ == "__main__":
    import harness

    sys.exit(harness.main())
