"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads eval-grid apply-field --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --trajectory perfbench/trajectory.json --label "parent"

Every (workload, seed) pair is one run of ``perfbench/run.py`` in its own
process, one after another.  For each end-to-end metric the report gives
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median,
against the metric's bound in BENCHMARK.json.  ``--trajectory`` adds the
medians and quartiles as one side of the current commit's point in the
trajectory file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOAD_NAMES, git_commit  # noqa: E402


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    with open(os.path.join(".perfbench_out", f"{workload}-seed{seed}-trace{trace}.json"), encoding="ascii") as fh:
        environment = json.load(fh)["environment"]
    return json.loads(done.stdout.strip().splitlines()[-1]), environment


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def summarize(results, declared):
    """{metric: {median, q1, q3, spread, bound, values}} over the runs of one workload."""
    out = {}
    for metric in declared:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
                     "bound": metric.get("bound"), "unit": metric["unit"], "values": values}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOAD_NAMES), choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trajectory", default=None, help="JSON file to add this side to")
    parser.add_argument("--label", default="", help="name of this side in the trajectory")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="ascii") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    side = {"label": args.label, "seeds": args.seeds, "seconds": seconds,
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        runs = [run_one(workload, seed, seconds, args.trace) for seed in args.seeds]
        results = [result for result, _ in runs]
        environment = {key: value for key, value in runs[0][1].items()
                       if key not in ("workload", "seed", "seconds", "trace")}
        summary = summarize(results, declared)
        side["workloads"][workload] = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": summary,
        }
        print(f"{workload}: correct = {side['workloads'][workload]['correct']}, "
              f"failed = {sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)} ops")
        for name, m in summary.items():
            if m["bound"] is None:
                continue
            flag = "" if m["spread"] < m["bound"] / 3 else (" > bound/3" if m["spread"] <= m["bound"] else " > BOUND")
            if name != "setup_s":
                worst = max(worst, m["spread"] / m["bound"])
            print(f"  {name:14s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} "
                  f"spread {m['spread']:.3f} (bound {m['bound']}){flag}")
    print(f"largest spread / bound, setup_s aside: {worst:.3f}")
    if args.trajectory:
        trajectory = {"points": []}
        if os.path.exists(args.trajectory):
            with open(args.trajectory, encoding="ascii") as fh:
                trajectory = json.load(fh)
        commit = git_commit(os.getcwd())
        point = next((p for p in trajectory["points"] if p["commit"] == commit), None)
        if point is None:
            point = {"commit": commit, "environment": dict(environment, cpu=_cpu_model()), "sides": []}
            trajectory["points"].append(point)
        for workload in side["workloads"].values():
            for m in workload["metrics"].values():
                del m["bound"]
        point["sides"].append(side)
        with open(args.trajectory, "w", encoding="ascii") as fh:
            json.dump(trajectory, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
