#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the tiny scale, untraced and
traced (and traced once more at 2 threads, fewer than the per-layer scaling
points), and checks that each run passes its output checks and emits every
declared metric with its unit and a finite value. Also checks that
perfbench/layers.json maps exactly the declared per-layer metrics, and that
the conditions which change what is measured refuse the run. Exits 0 when
everything holds.
"""
import json
import math
import os
import subprocess
import sys


def run(args, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], capture_output=True,
                          text=True, env=env, timeout=600)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open("perfbench/layers.json") as f:
        layers = json.load(f)["layers"]
    problems = []
    per_layer = {m["name"] for m in spec["per_layer"]}
    if set(layers) != per_layer:
        problems.append("layers.json vs per_layer: %s" % sorted(set(layers) ^ per_layer))

    nproc = len(os.sched_getaffinity(0))
    cases = [(w["name"], trace, []) for w in spec["workloads"] for trace in ("0", "1")]
    if nproc >= 2:
        cases.append((spec["workloads"][0]["name"], "1", ["--threads", "2"]))
    for workload, trace, extra in cases:
        p = run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
                 "--scale", "tiny", *extra])
        where = " ".join(["%s --trace %s" % (workload, trace), *extra])
        if p.returncode != 0:
            problems.append("%s: exit %d: %s" % (where, p.returncode, p.stderr[-500:]))
            continue
        result = json.loads(p.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            problems.append("%s: output checks failed: %s" % (where, {
                k: result[k] for k in ("correct", "attempted", "failed")}))
        for m in spec["per_layer" if trace == "1" else "end_to_end"]:
            got = result["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                problems.append("%s: metric %s: %s" % (where, m["name"], got))
        print("ok   %s (%d ops)" % (where, result["attempted"]), flush=True)

    base = ["--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0",
            "--scale", "tiny"]
    refusals = [
        ("FMTREE_ENGINE set", base, {"FMTREE_ENGINE": "batch"}),
        ("FMTREE_FAULTS set", base, {"FMTREE_FAULTS": "cache.read:error"}),
        ("threads > nproc", base + ["--threads", str(nproc + 1)], {}),
    ]
    for what, args, extra in refusals:
        p = run(args, env={**os.environ, **extra})
        if p.returncode == 0 or p.stdout.strip():
            problems.append("%s: not refused (exit %d)" % (what, p.returncode))
        else:
            print("ok   refused: %s" % what, flush=True)

    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
