"""Negative test of the benchmark's output checks.

Run from the repository root:

    python3 perfbench/selftest.py

Each case runs real ops through the benchmark's own op path and checks that
an untouched op passes, while an op whose output was damaged (one eval
value, one apply value) or whose verify suite was forced to fail is counted
as failed.  Exits 0 when every case behaves so, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from run import open_bench

PERTURBATION = 1e-6


def perturb(path, pick):
    """Multiply one value of a field file by (1 + PERTURBATION), keeping the file's format."""
    from workloads import read_field

    _, values = read_field(path)
    k = pick(values)
    values[k] *= 1.0 + PERTURBATION
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    fmt = lambda v: format(float(v), ".17g")
    if path.endswith(".csv"):
        lines = text.rstrip("\n").split("\n")
        cells = lines[k + 1].split(",")
        cells[-2:] = [fmt(values[k].real), fmt(values[k].imag)]
        lines[k + 1] = ",".join(cells)
        text = "\n".join(lines) + "\n"
    else:
        start = text.index('"values": [') + len('"values": [')
        end = text.rindex("]")
        body = ", ".join(f"[{fmt(v.real)}, {fmt(v.imag)}]" for v in values)
        text = text[:start] + body + text[end:]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return k


def main():
    bench = open_bench(argparse.Namespace(workload="eval-grid", seed=7, seconds=0.0, trace=0))
    if bench is None:
        return 2
    import workloads  # after open_bench, which caps BLAS threads before numpy loads

    np = bench.np
    workdir = os.path.join(bench.root, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    problems = []

    def expect(workload, op, damaged_call, label):
        """Run op twice: untouched it must pass, damaged it must count as failed."""
        failed = bench.failed
        bench.attempt(workload, op, bench.call_plain)
        if bench.failed != failed:
            problems.append(f"{label}: untouched op failed: {bench.failures[-1]}")
        failed = bench.failed
        bench.attempt(workload, op, damaged_call)
        caught = bench.failed == failed + 1
        print(f"{'ok  ' if caught else 'MISS'} {label}: " + (bench.failures[-1] if caught else "not counted"))
        if not caught:
            problems.append(f"{label}: damaged op was not counted as failed")

    def then_perturb(pick):
        def call(op):
            result = bench.call_plain(op)
            perturb(op.path, pick)
            return result
        return call

    def with_failing_suite(op):
        verify = bench.package["verify"]
        suite = verify._suite_hermite
        verify._suite_hermite = lambda: suite() + [verify._check("forced-failure", 1.0, 0.0)]
        try:
            return bench.call_plain(op)
        finally:
            verify._suite_hermite = suite

    rng = np.random.default_rng(7)
    try:
        evals = workloads.EvalGrid(workdir, bench.read_field)
        for op in evals.warmup(rng):
            expect(evals, op, then_perturb(lambda v: int(rng.integers(v.size))),
                   f"eval value perturbed ({os.path.basename(op.path)})")
        applies = workloads.ApplyField(workdir, bench.read_field)
        applies.setup(rng, bench.run_cli)
        for op in (applies.warmup(rng)[0], applies.cycle(rng)[2]):
            expect(applies, op, then_perturb(lambda v: int(np.argmax(np.abs(v)))),
                   f"apply output perturbed (n = {applies.inputs[op.spec['input']]['n']})")
        checks = workloads.VerifyAll(workdir, bench.read_field)
        expect(checks, checks.cycle(rng)[0], with_failing_suite, "verify suite forced to fail")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("PROBLEM " + problem)
    print(f"selftest: {bench.attempted} ops, {bench.failed} counted as failed, "
          f"{'pass' if not problems else 'FAIL'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
