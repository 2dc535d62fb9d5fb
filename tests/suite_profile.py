"""Per-suite wall time, minor page faults, tracemalloc peak and kernel work of `verify.run_suite`.

Runs every verify suite in-process K times (default 2) and prints one line per
suite and run: the wall time, the growth of ru_minflt (minor page faults, which
count memory the allocator handed back to the OS and had to fault in again), and
the tracemalloc peak of one further run of the suite under tracemalloc, which
would slow the timed runs.  That untimed run also counts the calls of verify's
kernel names `rho_hat`, `rho_tilde` and `heat_kernel_h` and the points they
return, printed as calls/points; these counts are the same on every machine.
The first run of a suite includes its warm-up.  Exits 1 when a suite reports a
failed check; the numbers themselves gate nothing, because machines differ.

    PYTHONPATH=src python tests/suite_profile.py [K]

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import contextlib
import resource
import sys
import time
import tracemalloc

import numpy as np

from heisenheat import verify

KERNELS = ("rho_hat", "rho_tilde", "heat_kernel_h")


@contextlib.contextmanager
def counted_kernels():
    """verify's KERNELS names wrapped to count calls and returned points; yields {name: [calls, points]}."""
    counts = {name: [0, 0] for name in KERNELS}
    originals = {name: getattr(verify, name) for name in KERNELS}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            value = func(*args, **kwargs)
            counts[name][0] += 1
            counts[name][1] += int(np.size(value))
            return value

        return wrapper

    for name, func in originals.items():
        setattr(verify, name, counted(name, func))
    try:
        yield counts
    finally:
        for name, func in originals.items():
            setattr(verify, name, func)


def profile(repeats: int) -> bool:
    """Print the table and return whether every suite passed in every run."""
    passed = True
    print(f"{'suite':<10} {'run':>3} {'wall_s':>8} {'minflt':>8} {'peak_mb':>8}"
          + "".join(f" {name:>16}" for name in KERNELS))
    for name in verify.SUITE_NAMES[:-1]:
        for run in range(1, repeats + 1):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            passed &= verify.run_suite(name)["passed"]
            wall = time.perf_counter() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            with counted_kernels() as counts:
                tracemalloc.start()
                passed &= verify.run_suite(name)["passed"]
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            work = "".join(f" {f'{calls}/{points}':>16}" for calls, points in counts.values())
            print(f"{name:<10} {run:>3} {wall:>8.3f} {faults:>8d} {peak:>8.2f}{work}")
    return passed


if __name__ == "__main__":
    sys.exit(0 if profile(int(sys.argv[1]) if len(sys.argv) > 1 else 2) else 1)
