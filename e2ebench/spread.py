#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and agreement between sets.

    python3 e2ebench/spread.py --seeds 1-10 --sets 2 [--workload design_us ...]
    python3 e2ebench/spread.py --seeds 1 --repeat 5 [--workload replay_us]

A set runs the benchmark (untraced) --repeat times per seed on each
workload.  For each set it prints, per end-to-end metric, the median
and the distance between the first and third quartiles as a share of
the median, next to the metric's bound from BENCHMARK.json; a spread at
or above a third of the bound is flagged.  --seeds 1-10 measures the
spread across seeds (instances and host noise together); a single seed
with --repeat measures host noise alone.  With --sets 2 or more, the
sets run one after another and each later set's medians are compared
with the first's: a median worse by more than the bound is flagged.
setup_s is checked like every other metric.  Raw result lines are
appended to .bench_out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(spec, workload, seeds, repeat, log, set_no):
    """Metric name -> values over the set's runs."""
    values = {}
    for seed in seeds:
        for _ in range(repeat):
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or len(lines) < 2:
                sys.exit("%s seed %d failed:\n%s" % (workload, seed, r.stderr))
            res, record = json.loads(lines[-1]), json.loads(lines[-2])
            log.write(json.dumps({"set": set_no, "workload": workload, "seed": seed,
                                  "record": record, "result": res}) + "\n")
            log.flush()
            if not res["correct"]:
                print("%s seed %d: failed checks: %s" % (workload, seed, record["check_failures"]))
            if record["digest_reference"] == "mismatch":
                print("%s seed %d: outputs differ from the reference digest" % (workload, seed))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    return values


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--repeat", type=int, default=1, help="runs per seed in a set")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--workload", action="append")
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    runs = len(a.seeds) * a.repeat
    if runs < 2:
        sys.exit("need at least two runs per set for quartiles")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = open(os.path.join(ROOT, ".bench_out", "spread.jsonl"), "a")
    sets = {w: [] for w in workloads}
    worst_spread = worst_drift = 0.0
    for s in range(a.sets):
        for w in workloads:
            values = run_set(spec, w, a.seeds, a.repeat, log, s + 1)
            sets[w].append(values)
            print("set %d, %s (%d runs)" % (s + 1, w, runs))
            for m in spec["end_to_end"]:
                xs = values[m["name"]]
                med = statistics.median(xs)
                q1, _, q3 = statistics.quantiles(xs, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                worst_spread = max(worst_spread, spread / m["bound"])
                line = "  %-14s median %-12.6g spread %6.2f%%  bound %5.1f%%" % (
                    m["name"], med, 100 * spread, 100 * m["bound"])
                if spread >= m["bound"] / 3:
                    line += "  <-- spread >= bound/3"
                if s > 0:
                    first = statistics.median(sets[w][0][m["name"]])
                    worse = (med - first if m["better"] == "lower" else first - med) / first
                    worst_drift = max(worst_drift, worse / m["bound"])
                    line += "  vs set 1 %+6.2f%% worse" % (100 * worse)
                    if worse > m["bound"]:
                        line += "  <-- beyond bound"
                print(line, flush=True)
    print("largest spread/bound: %.3f" % worst_spread)
    if a.sets > 1:
        print("largest median drift/bound: %.3f" % worst_drift)


if __name__ == "__main__":
    main()
