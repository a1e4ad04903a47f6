#!/usr/bin/env python3
"""Record the benchmark baseline: every workload over several seeds.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b] [--out perfbench/baseline.json]

Runs `perfbench/run.py --trace 0` once per (workload, seed), then reports
for each end-to-end metric the median, the quartiles (Python's
statistics.quantiles, n=4) and the spread (Q3 - Q1) / median against the
metric's bound in BENCHMARK.json, and the same for `reference_s`, the
wall time of the single-process run_scenario of the workload's scenario.
A run that is not correct fails the recording. Writes the summary with
the host context; it claims no gain.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_KEYS = ("nproc", "l2_bytes", "l3_bytes", "build_type", "compiler", "source")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def summarize(vals):
    """Median, quartiles (statistics.quantiles, n=4) and (Q3 - Q1) / median."""
    q1, _, q3 = statistics.quantiles(vals, n=4)
    median = statistics.median(vals)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"claim": None, "seeds": seed_list(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        references = []
        context = {}
        for seed in summary["seeds"]:
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if run.returncode == 0 and lines else {}
            if not result.get("correct"):
                sys.stderr.write(run.stdout + run.stderr)
                sys.exit("%s seed %d: run failed or not correct" % (workload, seed))
            for line in lines:
                if line.startswith("context "):
                    context = json.loads(line[len("context "):])
            references.append(context["reference_s"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d ok" % (workload, seed), flush=True)
        rows = {}
        for name, vals in values.items():
            rows[name] = dict(summarize(vals), bound=bounds[name])
            print("  %-14s median %-14.6g spread %.4f (bound %.2f)"
                  % (name, rows[name]["median"], rows[name]["spread"], bounds[name]),
                  flush=True)
        # Host context is shared; the working set and round counts are the
        # workload's own (from its last run).
        summary["context"] = {k: v for k, v in context.items() if k in HOST_KEYS}
        summary["workloads"][workload] = {
            "context": {k: v for k, v in context.items()
                        if k in ("n", "working_set", "executions", "measured_rounds")},
            # Single-process, single-shard run_scenario of the same scenario:
            # the like-for-like base for this workload's run_s.
            "reference_s": summarize(references),
            "metrics": rows}
    with open(args.out, "w") as out:
        json.dump(summary, out, indent=1)
        out.write("\n")


if __name__ == "__main__":
    main()
