#!/usr/bin/env python3
"""Compare a Google Benchmark JSON result against a checked-in baseline.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--threshold 0.20] [--strict]

Matches benchmarks by run name and compares wall-clock (`real_time`,
normalized to nanoseconds via each entry's `time_unit`). A run measured
with --benchmark_repetitions is represented by its `median` aggregate,
so one slow repetition on a shared host does not read as a regression;
a run without one by its iteration row. Prints one row per benchmark and
emits a GitHub Actions `::warning::` annotation for every benchmark
whose real time regressed by more than the threshold (default 20%).

The baselines under bench/baselines/ are advisory anchors for the perf
trajectory, not hard gates: absolute times shift with the runner
hardware, so regressions warn instead of failing. Pass --strict to turn
warnings into a non-zero exit (useful on dedicated perf runners).
Refresh a baseline by copying the build's BENCH_*.json over it when a
deliberate change moves the numbers.

Simulated counters are NOT advisory. A baseline may list counter names
in a top-level "exact_counters" array. Each such counter that a baseline
benchmark carries must appear on the same benchmark in the current file
with exactly the baseline value on every repetition's iteration row, or
the comparison exits 1 with or without --strict. These counters are
pure functions of the simulated model (simulated time, bus transactions,
interrupts), so any difference is a behaviour change, not noise.

Input validation is NOT advisory: a missing file, unparseable JSON, or a
file without any benchmark entries exits with status 2 (for either
argument). A silently-empty comparison would otherwise report "no
regressions" forever — e.g. after a typo'd baseline path or a truncated
artifact upload.
"""

import argparse
import json
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class BenchFileError(Exception):
    """A benchmark JSON file that cannot anchor a comparison."""


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise BenchFileError(f"{path}: cannot read ({e.strerror})") from e
    except json.JSONDecodeError as e:
        raise BenchFileError(f"{path}: malformed JSON ({e})") from e
    if not isinstance(data, dict):
        raise BenchFileError(f"{path}: top level is not a JSON object")
    benchmarks = data.get("benchmarks", [])
    if not isinstance(benchmarks, list):
        raise BenchFileError(f"{path}: 'benchmarks' is not an array")
    exact = data.get("exact_counters", [])
    if not isinstance(exact, list) or not all(
            isinstance(c, str) for c in exact):
        raise BenchFileError(f"{path}: 'exact_counters' is not a list of "
                             f"counter names")
    rows = {}      # run name -> real time in ns
    medians = {}   # run name -> real time of its median aggregate in ns
    entries = {}   # run name -> its iteration rows, one per repetition
    for b in benchmarks:
        if not isinstance(b, dict):
            raise BenchFileError(f"{path}: non-object benchmark entry ({b!r})")
        aggregate = b.get("run_type") == "aggregate"
        if aggregate and b.get("aggregate_name") != "median":
            continue
        try:
            name = b.get("run_name", b["name"])
            scale = _UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
            (medians if aggregate else rows)[name] = b["real_time"] * scale
        except (KeyError, TypeError) as e:
            raise BenchFileError(
                f"{path}: benchmark entry missing name/real_time ({e})"
            ) from e
        if not aggregate:
            entries.setdefault(name, []).append(b)
    rows.update(medians)
    if not rows:
        raise BenchFileError(f"{path}: no benchmark entries")
    for c in exact:
        if not any(c in e for reps in entries.values() for e in reps):
            raise BenchFileError(f"{path}: exact counter {c!r} appears in "
                                 f"no benchmark entry")
    return rows, entries, exact


def counter_mismatches(base_entries, cur_entries, exact):
    """(benchmark, counter, baseline value, current value) per differing
    current repetition; a benchmark missing from the current file counts
    once."""
    out = []
    for name in sorted(base_entries):
        for c in exact:
            want = next((e[c] for e in base_entries[name] if c in e), None)
            if want is None:
                continue
            for rep in cur_entries.get(name, [{}]):
                got = rep.get(c)
                if got != want:
                    out.append((name, c, want, got))
    return out


def fmt_ns(ns):
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= div:
            return f"{ns / div:.2f} {unit}"
    return f"{ns:.0f} ns"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="relative real-time regression that triggers a "
                         "warning (default: 0.20 = +20%%)")
    ap.add_argument("--strict", action="store_true",
                    help="exit non-zero when any benchmark regresses; "
                         "independent of validation: a missing, malformed "
                         "or empty baseline/current file always exits 2")
    args = ap.parse_args()

    try:
        base, base_entries, exact = load(args.baseline)
        cur, cur_entries, _ = load(args.current)
    except BenchFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    regressions = []
    print(f"{'benchmark':50s} {'baseline':>12s} {'current':>12s} {'ratio':>8s}")
    print("-" * 86)
    for name in sorted(cur):
        if name not in base:
            print(f"{name:50s} {'-':>12s} {fmt_ns(cur[name]):>12s} {'new':>8s}")
            continue
        ratio = cur[name] / base[name] if base[name] else float("inf")
        flag = ""
        if ratio > 1.0 + args.threshold:
            flag = "  <-- REGRESSION"
            regressions.append((name, ratio))
        print(f"{name:50s} {fmt_ns(base[name]):>12s} {fmt_ns(cur[name]):>12s} "
              f"{ratio:7.2f}x{flag}")
    for name in sorted(set(base) - set(cur)):
        print(f"{name:50s} {fmt_ns(base[name]):>12s} {'-':>12s} {'gone':>8s}")

    for name, ratio in regressions:
        print(f"::warning title=bench regression::{name} real_time is "
              f"{ratio:.2f}x the checked-in baseline "
              f"(threshold {1.0 + args.threshold:.2f}x)")

    mismatches = counter_mismatches(base_entries, cur_entries, exact)
    for name, c, want, got in mismatches:
        print(f"::error title=simulated counter changed::{name} {c} is "
              f"{'missing' if got is None else got}, baseline {want}")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed beyond "
              f"+{args.threshold:.0%}.")
    else:
        print("\nNo regressions beyond the threshold.")
    if exact:
        print(f"{len(mismatches)} exact counter mismatch(es) over "
              f"{', '.join(exact)}.")
    if mismatches or (regressions and args.strict):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
