"""Per-suite wall time, minor page faults and tracemalloc peak of `verify.run_suite`.

Runs every verify suite in-process K times (default 2) and prints one line per
suite and run: the wall time, the growth of ru_minflt (minor page faults, which
count memory the allocator handed back to the OS and had to fault in again), and
the tracemalloc peak of one further run of the suite under tracemalloc, which
would slow the timed runs.  The first run of a suite includes its warm-up.
Exits 1 when a suite reports a failed check; the numbers themselves gate
nothing, because machines differ.

    PYTHONPATH=src python tests/suite_profile.py [K]

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import resource
import sys
import time
import tracemalloc

from heisenheat import verify


def profile(repeats: int) -> bool:
    """Print the table and return whether every suite passed in every run."""
    passed = True
    print(f"{'suite':<10} {'run':>3} {'wall_s':>8} {'minflt':>8} {'peak_mb':>8}")
    for name in verify.SUITE_NAMES[:-1]:
        for run in range(1, repeats + 1):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            passed &= verify.run_suite(name)["passed"]
            wall = time.perf_counter() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            tracemalloc.start()
            passed &= verify.run_suite(name)["passed"]
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            print(f"{name:<10} {run:>3} {wall:>8.3f} {faults:>8d} {peak:>8.2f}")
    return passed


if __name__ == "__main__":
    sys.exit(0 if profile(int(sys.argv[1]) if len(sys.argv) > 1 else 2) else 1)
