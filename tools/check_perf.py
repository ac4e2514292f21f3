#!/usr/bin/env python3
"""Perf smoke check: compare a google-benchmark JSON run against the
checked-in baseline and fail on regressions.

Because CI runners and developer machines differ in absolute speed, the
default comparison is *relative*: each benchmark's cpu_time is normalized
by the geometric mean of all benchmarks common to both runs, and the
normalized value must not exceed the baseline's by more than the
threshold (default 20%). A uniform machine-speed difference cancels out;
a single benchmark regressing against its peers does not. Use
--absolute when both runs come from the same machine.

Every baseline entry stores its benchmark's time_unit (ns, us, ms or s).
Times are compared as numbers, so a baseline and a run that disagree on a
benchmark's unit fail the check instead of comparing values 1000x apart.

Usage:
  check_perf.py [--threshold 0.20] [--absolute] BASELINE CURRENT
  check_perf.py --update BASELINE CURRENT     # rewrite the baseline

Exit codes: 0 ok, 1 regression found, 2 usage/IO error.
"""

import argparse
import json
import math
import os
import sys


def load_times(path):
    """Returns {benchmark name: (cpu_time, time_unit)} from either a raw
    google-benchmark JSON dump or a baseline file written by --update.
    Every entry must name its unit: a time without one cannot be compared
    with a run that reports another unit."""
    try:
        with open(path) as fp:
            data = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read {path}: {exc}")
    if isinstance(data.get("benchmarks"), dict):  # Baseline format.
        entries = data["benchmarks"].items()
    else:
        benches = data.get("benchmarks", [])
        # With --benchmark_repetitions the median aggregate is the robust
        # statistic; fall back to plain iterations otherwise.
        entries = [(b.get("run_name", b["name"]), b) for b in benches
                   if b.get("run_type") == "aggregate"
                   and b.get("aggregate_name") == "median"]
        if not entries:
            entries = [(b["name"], b) for b in benches
                       if b.get("run_type", "iteration") == "iteration"]
    unitless = sorted(name for name, entry in entries
                      if "time_unit" not in entry)
    if unitless:
        sys.exit(f"error: no time_unit in {path} for: "
                 + ", ".join(unitless))
    return {name: (entry["cpu_time"], entry["time_unit"])
            for name, entry in entries}


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def check_positive(times, path):
    """A zero, negative, or non-finite cpu_time (a fresh/empty/hand-edited
    BENCH file, or a benchmark that divided by zero) would crash the
    geomean or poison every ratio below — NaN in particular compares False
    against the threshold and would silently pass the whole check. Fail
    with a clear message instead."""
    bad = sorted(name for name, t in times.items()
                 if not math.isfinite(t) or t <= 0)
    if bad:
        sys.exit(f"error: non-positive or non-finite cpu_time in {path} "
                 "for: " + ", ".join(bad)
                 + " (regenerate the file; every median must be a finite "
                 "value > 0)")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed slowdown fraction (default 0.20)")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw cpu_time instead of "
                             "geomean-normalized values")
    parser.add_argument("--update", action="store_true",
                        help="rewrite BASELINE from CURRENT and exit")
    args = parser.parse_args()

    current_units = load_times(args.current)
    if not current_units:
        sys.exit("error: no benchmarks in " + args.current)
    current = {name: t for name, (t, _) in current_units.items()}

    if args.update:
        bench = os.path.basename(args.baseline)
        if bench.endswith("_baseline.json"):
            bench = bench[:-len("_baseline.json")]
        out = {
            "note": "Checked-in perf baseline for tools/check_perf.py. "
                    f"Regenerate with: ./build/bench/{bench} "
                    "--benchmark_format=json --benchmark_min_time=0.2 "
                    "--benchmark_repetitions=3 "
                    "--benchmark_report_aggregates_only=true > out.json && "
                    "python3 tools/check_perf.py --update "
                    f"{args.baseline} out.json",
            "benchmarks": {name: {"cpu_time": t, "time_unit": unit}
                           for name, (t, unit)
                           in sorted(current_units.items())},
        }
        with open(args.baseline, "w") as fp:
            json.dump(out, fp, indent=2)
            fp.write("\n")
        print(f"updated {args.baseline} with {len(current)} benchmarks")
        return 0

    baseline_units = load_times(args.baseline)
    if not baseline_units:
        sys.exit("error: no benchmarks in " + args.baseline)
    baseline = {name: t for name, (t, _) in baseline_units.items()}
    common = sorted(set(baseline) & set(current))
    if not common:
        sys.exit("error: no common benchmarks between baseline and current")
    # Times are compared as plain numbers, so a benchmark whose unit changed
    # (say us -> ms) would be off by 1000x without this check.
    mismatched = [f"{n} ({baseline_units[n][1]} in baseline, "
                  f"{current_units[n][1]} in current run)"
                  for n in common
                  if baseline_units[n][1] != current_units[n][1]]
    if mismatched:
        sys.exit("error: time units differ: " + "; ".join(mismatched)
                 + ". Refresh the baseline with --update.")
    check_positive({n: baseline[n] for n in common}, args.baseline)
    check_positive({n: current[n] for n in common}, args.current)
    # A name-set mismatch in either direction is a hard failure, not a
    # warning: a benchmark silently dropped from the current run is a
    # regression that would otherwise never be measured again, and a new
    # benchmark missing from the baseline skews the geomean normalization
    # for every other entry until someone notices.
    missing = sorted(set(baseline) - set(current))
    extra = sorted(set(current) - set(baseline))
    if missing or extra:
        parts = []
        if missing:
            parts.append("in baseline but not in current run: "
                         + ", ".join(missing))
        if extra:
            parts.append("in current run but not in baseline: "
                         + ", ".join(extra))
        sys.exit("error: benchmark name sets differ ("
                 + "; ".join(parts)
                 + "). Re-run the full suite, or refresh the baseline "
                 "with --update.")

    if args.absolute:
        base_norm, cur_norm = 1.0, 1.0
    else:
        base_norm = geomean([baseline[n] for n in common])
        cur_norm = geomean([current[n] for n in common])

    failed = []
    print(f"{'benchmark':<40} {'baseline':>12} {'current':>12} {'unit':>4} "
          f"{'ratio':>8}")
    for name in common:
        base = baseline[name] / base_norm
        cur = current[name] / cur_norm
        ratio = cur / base
        marker = ""
        if ratio > 1.0 + args.threshold:
            failed.append(name)
            marker = "  <-- REGRESSION"
        unit = baseline_units[name][1]
        print(f"{name:<40} {baseline[name]:>12.1f} {current[name]:>12.1f} "
              f"{unit:>4} {ratio:>7.2f}x{marker}")

    mode = "absolute" if args.absolute else "geomean-normalized"
    if failed:
        print(f"\nFAIL: {len(failed)} benchmark(s) regressed more than "
              f"{args.threshold:.0%} ({mode}): " + ", ".join(failed))
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0%} "
          f"({mode}, {len(common)} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
