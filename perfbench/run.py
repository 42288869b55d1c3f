#!/usr/bin/env python3
"""Builds and runs the fmtree benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are declared in BENCHMARK.json; perfbench/layers.json
maps each per-layer metric to the end-to-end metric and workload it should
move. The first call builds perfbench (a Release build of ../src plus the
benchmark program in perfbench/src) under $CARGO_TARGET_DIR (default .bench_build);
later calls only re-check the build. The last stdout line is the result
object; it is printed only when its metrics match BENCHMARK.json by name and
unit. Extra arguments (--threads N, --scale tiny) are passed to the binary.
"""
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        fail("run from the checkout root (perfbench/CMakeLists.txt not found)", 2)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found", 2)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    for var in ("FMTREE_ENGINE", "FMTREE_FAULTS"):
        if var in os.environ:
            fail(var + " is set; it changes what is measured", 2)
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.join(root, "perfbench"))
    # A relative work directory keeps the daemon's socket path short.
    work = os.path.relpath(os.path.join(root, "work.%d" % os.getpid()))
    try:
        proc = subprocess.run([binary, *argv, "--work-dir", work], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("perfbench exited with code %d" % proc.returncode, proc.returncode or 1)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        fail("metrics do not match BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(expected_metrics(trace).items())))
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
