#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the cISP pipeline.

Run from the root of a source tree:

    python3 e2ebench/run.py --workload design_us --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --selftest

The first form builds the harness (release profile, build tree in
.bench_build), runs one workload and passes its output through: the
last stdout line is the result object. --selftest runs every workload
at toy scale, traced and untraced, and checks the harness itself.
See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
PROFILE = "release"
EXE = os.path.join(BUILD_DIR, "default", "e2ebench", "e2e.exe")
WORKLOADS = ["design_us", "design_eu", "replay_us"]


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_rev():
    """Commit id in a git checkout, else a digest of the library sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    h = hashlib.sha1()
    for top in ["dune-project", "lib", "e2ebench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build():
    for need in ["dune-project", "lib", os.path.join("e2ebench", "dune")]:
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from the root of a cISP source tree" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", PROFILE, "./e2ebench/e2e.exe"]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)


def run_exe(args, capture=False):
    cmd = [os.path.join(ROOT, EXE)] + args + [
        "--rev", source_rev(), "--profile", PROFILE]
    if capture:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return subprocess.run(cmd, cwd=ROOT)


def selftest():
    """Every workload, every metric and the trace writer, at toy scale."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            r = run_exe(["--workload", w, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--selftest"], capture=True)
            tag = "%s trace=%d" % (w, trace)
            before = len(problems)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (tag, r.returncode, r.stderr))
                continue
            res = json.loads(lines[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append("%s: checks failed: %s" % (tag, lines[-2]))
            metrics = res["metrics"]
            for mt in expected[trace]:
                got = metrics.get(mt["name"])
                if got is None:
                    problems.append("%s: metric %s missing" % (tag, mt["name"]))
                elif got["unit"] != mt["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append("%s: metric %s is %s" % (tag, mt["name"], got))
            extra = set(metrics) - {mt["name"] for mt in expected[trace]}
            if extra:
                problems.append("%s: metrics not in BENCHMARK.json: %s" % (tag, sorted(extra)))
            if trace == 1:
                cov = metrics.get("trace.coverage", {}).get("value", 0.0)
                if cov < 0.95:
                    problems.append("%s: top-level spans cover only %.3f of wall_s" % (tag, cov))
                path = next((l.split()[1] for l in lines if l.startswith("trace: ")), None)
                if path is None:
                    problems.append("%s: no trace written" % tag)
                else:
                    with open(os.path.join(ROOT, path)) as f:
                        spans = [json.loads(l) for l in f]
                    runs = {s["run"] for s in spans}
                    names = {s["name"] for s in spans}
                    if len(runs) != 1 or "timed" not in names:
                        problems.append("%s: trace %s malformed" % (tag, path))
            print("selftest %-20s %s" % (tag, "ok" if len(problems) == before else "FAILED"))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        sys.exit(1)
    print("selftest passed")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    os.chdir(ROOT)
    build()
    if a.selftest:
        selftest()
        return
    if a.workload is None:
        fail("--workload is required")
    if a.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            a.seconds = json.load(f)["run_seconds"]
    r = run_exe(["--workload", a.workload, "--seed", str(a.seed),
                 "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
