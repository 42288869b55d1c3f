#!/usr/bin/env python3
"""Perf-regression gate for the Monte-Carlo engine benchmark.

Compares one or more candidate BENCH_engine.json runs (produced by
bench/run_perf.sh --out run.json) against the checked-in baseline and fails
when the best candidate throughput drops more than --tolerance below the
baseline figure. Several candidate files act as best-of-N: only the fastest
run has to clear the bar, which absorbs most CI-runner noise.

Beyond the throughput floor the gate also:

 * validates every candidate entry structurally — the batch-engine fields
   must be present, positive, and lane/chunk-invariant, the scalar engine
   must report bitwise equivalence, and a run with parallel_threads <= 1
   must carry parallel_measured=false (a 1-worker run is not a parallel
   measurement and is refused as a parallel comparison metric);
 * prints throughput, ns/event and batch_vs_scalar deltas of the best
   candidate against the baseline, so a gate failure comes with per-event
   attribution;
 * with --min-value, replaces the tolerance floor by an outright bar (e.g.
   batch_vs_scalar >= 2.0, the machine-independent batch-engine bar).

Exit status: 0 = within tolerance, 1 = regression or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

# Per-model fields every candidate run must carry, with sanity predicates.
REQUIRED_FIELDS = {
    "single_thread_traj_per_sec": lambda v, e: isinstance(v, (int, float)) and v > 0,
    "batch_traj_per_sec": lambda v, e: isinstance(v, (int, float)) and v > 0,
    "batch_lane_width": lambda v, e: isinstance(v, int) and v > 0,
    "batch_ns_per_event": lambda v, e: isinstance(v, (int, float)) and v > 0,
    "ns_per_event": lambda v, e: isinstance(v, (int, float)) and v > 0,
    "bitwise_equivalent": lambda v, e: v is True,
    "batch_lane_invariant": lambda v, e: v is True,
    "parallel_threads": lambda v, e: isinstance(v, int) and v >= 1,
    # Honest parallel labeling: one worker must never be presented as a
    # parallel measurement.
    "parallel_measured": lambda v, e: v is (e.get("parallel_threads", 0) > 1),
}

# Fields worth a delta line when comparing best candidate vs baseline.
DELTA_FIELDS = [
    ("single_thread_traj_per_sec", "traj/s", "higher"),
    ("batch_traj_per_sec", "traj/s", "higher"),
    ("ns_per_event", "ns/ev", "lower"),
    ("batch_ns_per_event", "ns/ev", "lower"),
    ("batch_vs_scalar", "x", "higher"),
]


def load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"error: cannot read benchmark file {path}: {err}")


def model_entry(doc: dict, path: str, model: str) -> dict:
    models = doc.get("models")
    if not isinstance(models, list):
        raise SystemExit(
            f"error: {path}: no 'models' array — is this a BENCH_engine.json "
            f"produced by bench/run_perf.sh --out? "
            f"(top-level keys: {', '.join(sorted(doc)) or 'none'})")
    for entry in models:
        if entry.get("model") == model:
            return entry
    available = ", ".join(sorted(str(e.get("model")) for e in models)) or "none"
    raise SystemExit(f"error: {path}: model '{model}' not found "
                     f"(models present: {available})")


def metric_value(entry: dict, path: str, model: str, metric: str) -> float:
    if metric not in entry:
        numeric = ", ".join(sorted(
            k for k, v in entry.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)))
        raise SystemExit(
            f"error: {path}: model '{model}' has no field '{metric}' — "
            f"regenerate the file with the current bench/run_perf.sh "
            f"(numeric fields present: {numeric or 'none'})")
    value = entry[metric]
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise SystemExit(
            f"error: {path}: model '{model}' field '{metric}' = {value!r} "
            f"must be a positive number")
    return float(value)


def validate_entry(entry: dict, path: str, model: str) -> list[str]:
    problems = []
    for field, ok in REQUIRED_FIELDS.items():
        if field not in entry:
            problems.append(f"{path}: {model}: missing field '{field}'")
        elif not ok(entry[field], entry):
            problems.append(
                f"{path}: {model}: field '{field}' = {entry[field]!r} fails validation")
    return problems


def print_deltas(baseline: dict, candidate: dict) -> None:
    for field, unit, better in DELTA_FIELDS:
        b, c = baseline.get(field), candidate.get(field)
        if not isinstance(b, (int, float)) or not isinstance(c, (int, float)) or b <= 0:
            continue
        rel = c / b - 1.0
        improved = rel >= 0 if better == "higher" else rel <= 0
        print(f"  {field}: {b:.6g} -> {c:.6g} {unit} "
              f"({rel:+.1%}, {'better' if improved else 'worse'})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="checked-in BENCH_engine.json to compare against")
    parser.add_argument("--model", default="ei_joint",
                        help="model entry to compare (default: ei_joint)")
    parser.add_argument("--metric", default="single_thread_traj_per_sec",
                        help="throughput field (default: single_thread_traj_per_sec)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop below baseline (default: 0.20)")
    parser.add_argument("--min-value", type=float, default=None,
                        help="require best candidate >= VALUE outright (machine-"
                             "independent bar, e.g. batch_vs_scalar >= 2.0)")
    parser.add_argument("candidates", nargs="+",
                        help="candidate run JSON files; best of them is used")
    args = parser.parse_args()
    if not 0 <= args.tolerance < 1:
        raise SystemExit("error: --tolerance must lie in [0, 1)")

    baseline_doc = load_doc(args.baseline)
    baseline_entry = model_entry(baseline_doc, args.baseline, args.model)
    baseline = metric_value(baseline_entry, args.baseline, args.model, args.metric)

    runs = []
    problems = []
    for path in args.candidates:
        entry = model_entry(load_doc(path), path, args.model)
        problems += validate_entry(entry, path, args.model)
        if args.metric.startswith("parallel") and not entry.get("parallel_measured"):
            problems.append(
                f"{path}: {args.model}: refusing '{args.metric}' as a gate "
                f"metric — run used {entry.get('parallel_threads')} worker(s), "
                f"which is not a parallel measurement")
        runs.append((path, entry,
                     metric_value(entry, path, args.model, args.metric)))

    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1

    best_path, best_entry, best = max(runs, key=lambda item: item[2])
    if args.min_value is not None:
        floor = args.min_value
        bar = f">= {args.min_value:g} outright"
    else:
        floor = baseline * (1.0 - args.tolerance)
        bar = f"-{args.tolerance:.0%}"

    print(f"baseline {args.model}.{args.metric}: {baseline:.6g} "
          f"(floor at {bar}: {floor:.6g})")
    for path, _, value in runs:
        marker = " <-- best" if path == best_path else ""
        print(f"  {path}: {args.metric} = {value:.6g} "
              f"({value / baseline - 1.0:+.1%} vs baseline){marker}")
    print(f"deltas ({best_path} vs {args.baseline}):")
    print_deltas(baseline_entry, best_entry)

    if best < floor:
        print(f"FAIL: best run {best:.6g} is below the bar of {floor:.6g} "
              f"({bar} of baseline {baseline:.6g})", file=sys.stderr)
        return 1
    print("OK: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
