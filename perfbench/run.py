"""Benchmark of the heisenheat CLI paths: eval, apply and verify.

Run from the repository root:

    python3 perfbench/run.py --workload eval-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

One process is one closed-loop client: it calls ``heisenheat.cli.main(argv)``
in-process, and each op starts when the previous one has returned and its
output has been checked.  The package is imported from ``./src``; only the
generated command lines and input files reach it.  BLAS/OpenMP threads are
capped at the number of usable CPUs.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs every op
twice, plain and traced, and reports the per-layer metrics per cycle of the
workload's op list.  Metric names and units come from BENCHMARK.json.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
report, and a fuller record (op times, failures, spans) is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

SETUP_ROUNDS = 5
WORKLOAD_NAMES = ("eval-grid", "apply-field", "verify-all")
_BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tail(times):
    """(value, percentile): the highest sample with ten samples above it, not below the median."""
    xs = sorted(times)
    k = len(xs) - 11
    if k < (len(xs) - 1) / 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


class Bench:
    def __init__(self, args, root, nproc):
        import numpy as np

        import heisenheat
        from heisenheat import cli, hermite, kernels, series, verify

        src = os.path.join(root, "src")
        if not os.path.abspath(heisenheat.__file__).startswith(src + os.sep):
            raise RuntimeError(f"imported heisenheat from {heisenheat.__file__}, not from {src}")
        import workloads

        self.np = np
        self.args = args
        self.root = root
        self.src = src
        self.cli = cli
        self.package = {"kernels": kernels, "cli": cli, "verify": verify, "series": series,
                        "hermite": hermite, "FieldSample": kernels.FieldSample}
        with open(os.path.join(root, "BENCHMARK.json"), encoding="ascii") as fh:
            self.declared = json.load(fh)
        self.workload_cls = workloads.WORKLOADS[args.workload]
        self.environment = {
            "package": "heisenheat",
            "version": heisenheat.__version__,
            "commit": git_commit(root),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": nproc,
            "blas_thread_cap": nproc,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        }
        self.failures = []
        self.attempted = self.failed = self.work = 0
        self.op_seconds = []

    # -- ops --------------------------------------------------------------

    def read_field(self, path):
        fs = self.package["FieldSample"]
        return fs.from_csv(path) if path.endswith(".csv") else fs.from_json(path)

    def _main(self, argv):
        """cli.main(argv) as an exit code; a crash is exit code -1."""
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            self.failures.append(traceback.format_exc(limit=3))
            return -1

    def run_cli(self, argv):
        """Untimed CLI call for set-up; returns the exit code."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self._main(argv)

    def call_plain(self, op):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            rc = self._main(op.argv)
            return rc, time.perf_counter() - start

    def call_traced(self, op):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self.tracer.run_op(self.attempted, lambda: self._main(op.argv))

    def attempt(self, workload, op, call):
        """Run one op and check its output; a failed op is counted, never redrawn."""
        gc.collect()
        rc, seconds = call(op)
        self.attempted += 1
        try:
            error = workload.check(op, rc)
        except Exception as exc:  # a malformed output file is a failed op
            error = f"check raised {exc!r}"
        if error is None:
            self.work += op.work
        else:
            self.failed += 1
            self.failures.append(f"{' '.join(op.argv)}: {error}")
        self.op_seconds.append(seconds)
        return seconds

    # -- set-up -----------------------------------------------------------

    def _import_seconds(self):
        env = dict(os.environ, PYTHONPATH=self.src)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import heisenheat.cli"], cwd=self.root, env=env,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    def setup(self, workdir, seeds):
        """Import in a fresh interpreter, write the inputs, run the warm-up ops; median of rounds."""
        np = self.np
        rounds = []
        for _ in range(SETUP_ROUNDS):
            start = time.perf_counter()
            self._import_seconds()
            workload = self.workload_cls(workdir, self.read_field)
            workload.setup(np.random.default_rng(seeds[0]), self.run_cli)
            for op in workload.warmup(np.random.default_rng(seeds[1])):
                rc = self.run_cli(op.argv)
                error = workload.check(op, rc)
                if error is not None:
                    raise RuntimeError(f"warm-up op {' '.join(op.argv)}: {error}")
            rounds.append(time.perf_counter() - start)
        return workload, statistics.median(rounds)

    # -- runs -------------------------------------------------------------

    def run(self):
        np = self.np
        name, seed = self.args.workload, self.args.seed
        workdir = os.path.join(self.root, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
        outdir = os.path.join(self.root, ".perfbench_out")
        os.makedirs(workdir)
        os.makedirs(outdir, exist_ok=True)
        seeds = np.random.SeedSequence(seed).spawn(3)
        try:
            workload, setup_s = self.setup(workdir, seeds)
            rng = np.random.default_rng(seeds[2])
            if self.args.trace:
                metrics, extra = self._traced(workload, rng, os.path.join(outdir, f"{name}-seed{seed}-spans.json"))
                declared = self.declared["per_layer"]
            else:
                metrics, extra = self._plain(workload, rng, setup_s)
                declared = self.declared["end_to_end"]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise RuntimeError(f"BENCHMARK.json declares metrics this run does not produce: {missing}")
        result = {
            "correct": self.failed == 0 and not extra.get("unbalanced_ops"),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        }
        record = dict(result, environment=self.environment, op_seconds=self.op_seconds,
                      failures=self.failures[:20], **extra)
        with open(os.path.join(outdir, f"{name}-seed{seed}-trace{self.args.trace}.json"), "w",
                  encoding="ascii") as fh:
            json.dump(record, fh, indent=1)
        self._report(result, extra)
        print(json.dumps(result))
        return 0

    def _plain(self, workload, rng, setup_s):
        deadline = time.perf_counter() + self.args.seconds
        while time.perf_counter() < deadline:
            for op in workload.cycle(rng):
                if time.perf_counter() >= deadline:
                    break
                self.attempt(workload, op, self.call_plain)
        tail, percentile = _tail(self.op_seconds)
        metrics = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(self.op_seconds),
            "op_tail_s": tail,
            "ops": self.attempted,
            "work_per_s": self.work / sum(self.op_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return metrics, {"tail_percentile": percentile, "work_name": workload.work_name}

    def _traced(self, workload, rng, spans_path):
        import tracing

        self.tracer = tracing.Tracer(self.package)
        plain = traced = 0.0
        cycles = 0
        deadline = time.perf_counter() + self.args.seconds
        while cycles == 0 or time.perf_counter() < deadline:
            for op in workload.cycle(rng):
                # alternate which of the pair runs first, so warm-up effects split evenly
                for call in ((self.call_plain, self.call_traced), (self.call_traced, self.call_plain))[cycles % 2]:
                    seconds = self.attempt(workload, op, call)
                    if call == self.call_plain:
                        plain += seconds
                    else:
                        traced += seconds
            cycles += 1
        self.tracer.write(spans_path)
        metrics = {"trace_overhead_ratio": traced / plain}
        for name, totals in self.tracer.totals.items():
            for key, value in totals.items():
                if key == "inclusive_ns":  # a span's inclusive time is named <span>.s
                    metrics[f"{name}.s"] = value * 1e-9 / cycles
                elif key.endswith("_ns"):
                    metrics[f"{name}.{key[:-3]}_s"] = value * 1e-9 / cycles
                else:
                    metrics[f"{name}.{key}"] = value / cycles
        terms = self.tracer.totals["series.u_series"]
        metrics["series.u_series.terms_ratio"] = (
            terms["terms_used"] / terms["terms_budget"] if terms["terms_budget"] else 0.0
        )
        return metrics, {"cycles": cycles, "unbalanced_ops": self.tracer.unbalanced_ops(), "spans": spans_path}

    def _report(self, result, extra):
        env = self.environment
        print("environment " + json.dumps(env))
        ratio = result["failed"] / result["attempted"]
        print(f"{env['workload']} seed {env['seed']}: ops = {result['attempted']}, failed = {result['failed']}, "
              f"failed_ratio = {ratio:g}" + (f", tail = p{extra['tail_percentile']:.1f}" if "tail_percentile" in extra else "")
              + (f", cycles = {extra['cycles']}" if "cycles" in extra else ""))
        for name, metric in result["metrics"].items():
            label = f"{extra['work_name']} (work_per_s)" if name == "work_per_s" else name
            print(f"  {label:48s} {metric['value']:.6g} {metric['unit']}")
        for message in self.failures[:5]:
            print("  FAILED " + message.strip().replace("\n", " | "))


def _run_all(args):
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, timeout=900).returncode)
    return status


def open_bench(args):
    """A Bench importing the package from ./src with BLAS threads capped; None without sources."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "heisenheat", "cli.py")):
        print("error: no heisenheat sources at ./src; run from the repository root", file=sys.stderr)
        return None
    nproc = len(os.sched_getaffinity(0))
    for var in _BLAS_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, os.path.join(root, "src"))
    return Bench(args, root, nproc)


def main(argv=None):
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    bench = open_bench(args)
    return 2 if bench is None else bench.run()


if __name__ == "__main__":
    sys.exit(main())
