"""Per-suite wall time, minor page faults, tracemalloc peak and kernel work of `verify.run_suite`.

Runs every verify suite in-process K times (default 2) and prints one line per
suite and run: the wall time, the growth of ru_minflt (minor page faults, which
count memory the allocator handed back to the OS and had to fault in again), and
the tracemalloc peak of one further run of the suite under tracemalloc, which
would slow the timed runs.  That untimed run also counts the calls of verify's
kernel names `rho_hat`, `rho_tilde` and `heat_kernel_h` and the points they
return, printed as calls/points, and the calls of `series.u_series`, the points
and the terms_used it returns, printed as calls/points/terms; these counts are
the same on every machine.
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

from heisenheat import series, verify

# (module, name) of each counted function: verify's kernel names, then the series oracle
COUNTED = ((verify, "rho_hat"), (verify, "rho_tilde"), (verify, "heat_kernel_h"), (series, "u_series"))


@contextlib.contextmanager
def counted_work():
    """COUNTED wrapped to count their work; yields {name: [calls, points]}, with terms_used added for u_series."""
    counts = {name: [0, 0, 0] if module is series else [0, 0] for module, name in COUNTED}
    originals = {name: getattr(module, name) for module, name in COUNTED}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            value = func(*args, **kwargs)
            count = counts[name]
            count[0] += 1
            if isinstance(value, series.UValue):
                count[1] += int(np.size(value.value))
                count[2] += value.terms_used
            else:
                count[1] += int(np.size(value))
            return value

        return wrapper

    for module, name in COUNTED:
        setattr(module, name, counted(name, originals[name]))
    try:
        yield counts
    finally:
        for module, name in COUNTED:
            setattr(module, name, originals[name])


def profile(repeats: int) -> bool:
    """Print the table and return whether every suite passed in every run."""
    passed = True
    print(f"{'suite':<10} {'run':>3} {'wall_s':>8} {'minflt':>8} {'peak_mb':>8}"
          + "".join(f" {name:>16}" for _, name in COUNTED))
    for name in verify.SUITE_NAMES[:-1]:
        for run in range(1, repeats + 1):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            passed &= verify.run_suite(name)["passed"]
            wall = time.perf_counter() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            with counted_work() as counts:
                tracemalloc.start()
                passed &= verify.run_suite(name)["passed"]
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            work = "".join(f" {'/'.join(map(str, count)):>16}" for count in counts.values())
            print(f"{name:<10} {run:>3} {wall:>8.3f} {faults:>8d} {peak:>8.2f}{work}")
    return passed


if __name__ == "__main__":
    sys.exit(0 if profile(int(sys.argv[1]) if len(sys.argv) > 1 else 2) else 1)
