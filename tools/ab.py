#!/usr/bin/env python3
"""Alternating A/B runs of one perfbench workload, or of one
Google-Benchmark suite, on two source trees.

    python3 tools/ab.py BASE CHANGE --workload search --pairs 10 --seconds 20
    python3 tools/ab.py BASE CHANGE --bench kernel [--filter REGEX]

BASE and CHANGE are each a git revision of this repository, checked out
into a temporary `git worktree` that is removed afterwards, or the path
of a directory that already holds a source checkout (for example an
exported tree of uncommitted work), used in place. Each tree builds its
own perfbench (`perfbench/run.py` builds into the tree's `.bench_build/`),
first in one short warm-up run whose result is dropped. Then the tool
runs N pairs, alternating which side goes first (base-change,
change-base, ...), so a drift in host load falls on both sides alike.

For every end-to-end metric that BENCHMARK.json lists, it prints the
two medians, the base's interquartile range, the pairs the change won
and a two-sided sign-test p-value over the pairs that were not ties,
then each side's values in run order. It also prints each side's
digest, and exits 1 if one side's runs printed different digests.

With --bench SUITE the tool instead builds the `bench_SUITE` target in
each tree (a Release build in the tree's `.bench_build/ab-bench/`) and
alternates single runs of it, each with the --filter regex as
--benchmark_filter. For every benchmark row it prints the same summary
over the row's `real_time`, and then each side's values in run order.

Nothing is written under perfbench/; the temporary directory honours
TMPDIR.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ------------------------------------------------------------ statistics --

def median(xs):
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def quartiles(xs):
    """First and third quartile, linear interpolation between order
    statistics (numpy's default, R's type 7)."""
    s = sorted(xs)
    if not s:
        raise ValueError("quartiles of no values")

    def at(q):
        pos = q * (len(s) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.25), at(0.75)


def iqr(xs):
    q1, q3 = quartiles(xs)
    return q3 - q1


def pairs_won(base, change, better):
    """(wins, ties) of `change` over `base`, pair by pair."""
    if len(base) != len(change):
        raise ValueError("unpaired samples")
    wins = ties = 0
    for a, b in zip(base, change):
        if a == b:
            ties += 1
        elif (b < a) == (better == "lower"):
            wins += 1
    return wins, ties


def sign_test_p(wins, n):
    """Two-sided exact sign test: the probability, under a fair coin, of
    a split of `n` pairs at least as uneven as `wins` of `n`."""
    if n == 0:
        return 1.0
    k = min(wins, n - wins)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def summarize(name, unit, better, base, change):
    """One summary line for metric `name` over paired samples."""
    mb, mc = median(base), median(change)
    wins, ties = pairs_won(base, change, better)
    n = len(base) - ties
    rel = f"{(mc - mb) / mb * 100:+.1f}%" if mb else "n/a"
    line = (f"{name} ({unit}, {better} is better), {len(base)} pairs: "
            f"base median {mb:.6g}, change median {mc:.6g} ({rel}), "
            f"base IQR {iqr(base):.4g}; change better in {wins} of "
            f"{len(base)} pairs")
    if ties:
        line += f" ({ties} tied)"
    return line + f", sign test p = {sign_test_p(wins, n):.4g}"


# --------------------------------------------------------------- running --

def end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]


def run_once(tree, workload, seed, seconds):
    """Run perfbench in `tree`; return (metrics, digest line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree} "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        raise RuntimeError(f"perfbench in {tree} reported correct=false")
    digest = next((l[len("digest:"):].strip() for l in lines
                   if l.startswith("digest:")), "")
    return ({k: v["value"] for k, v in result["metrics"].items()}, digest)


def bench_build(tree, suite):
    """Build bench_SUITE in `tree`; return the executable's path."""
    build = os.path.join(tree, ".bench_build", "ab-bench")
    subprocess.run(["cmake", "-S", tree, "-B", build,
                    "-DCMAKE_BUILD_TYPE=Release", "-DSTLM_BUILD_TESTS=OFF",
                    "-DSTLM_BUILD_EXAMPLES=OFF"],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build, "--target", f"bench_{suite}",
                    "-j", "2"], check=True, stdout=subprocess.DEVNULL)
    return os.path.join(build, f"bench_{suite}")


def bench_rows(doc):
    """Row name -> (real_time, time_unit) of a Google-Benchmark JSON
    document's iteration rows (aggregates are skipped)."""
    return {row["name"]: (row["real_time"], row["time_unit"])
            for row in doc["benchmarks"]
            if row.get("run_type", "iteration") == "iteration"}


def bench_once(exe, regex):
    cmd = [exe, "--benchmark_format=json"]
    if regex:
        cmd.append(f"--benchmark_filter={regex}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{exe} failed (exit {proc.returncode})")
    rows = bench_rows(json.loads(proc.stdout))
    if not rows:
        raise RuntimeError(f"{exe} ran no benchmark")
    return rows


def alternate(pairs, run):
    """Call run(side) for N pairs, alternating which side goes first;
    return each side's results in run order."""
    results = ([], [])
    for i in range(pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            results[side].append(run(side))
        print(f"pair {i + 1}/{pairs} done", file=sys.stderr)
    return results


def print_samples(base, change):
    for label, vals in (("base", base), ("change", change)):
        print(f"  {label}: " + " ".join(f"{v:.6g}" for v in vals))


def main_bench(args, trees):
    exes = [bench_build(tree, args.bench) for tree in trees]
    runs = alternate(args.pairs, lambda side: bench_once(
        exes[side], args.filter))
    print(f"bench_{args.bench}, {args.pairs} alternating pairs"
          + (f", filter {args.filter}" if args.filter else "")
          + f"; base {args.base}, change {args.change}")
    missing = False
    for name, (_, unit) in runs[0][0].items():
        try:
            base = [r[name][0] for r in runs[0]]
            change = [r[name][0] for r in runs[1]]
        except KeyError:
            print(f"{name}: not run on both sides")
            missing = True
            continue
        print(summarize(f"{name} real_time", unit, "lower", base, change))
        print_samples(base, change)
    return 1 if missing else 0


class Trees:
    """Source trees for the two sides; revisions become temporary
    worktrees, removed on exit."""

    def __init__(self, specs):
        self.specs = specs
        self.tmp = None
        self.worktrees = []
        self.paths = []

    def __enter__(self):
        try:
            for i, spec in enumerate(self.specs):
                if os.path.isdir(spec):
                    self.paths.append(os.path.abspath(spec))
                    continue
                if self.tmp is None:
                    self.tmp = tempfile.mkdtemp(prefix="ab-")
                path = os.path.join(self.tmp, "base" if i == 0 else "change")
                subprocess.run(["git", "-C", ROOT, "worktree", "add",
                                "--detach", path, spec], check=True,
                               stdout=subprocess.DEVNULL)
                self.worktrees.append(path)
                self.paths.append(path)
        except BaseException:
            self.__exit__()
            raise
        return self.paths

    def __exit__(self, *exc):
        for path in self.worktrees:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", path], check=False,
                           stdout=subprocess.DEVNULL)
        if self.worktrees:
            subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                           check=False)
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
        return False


def main_perfbench(args, trees):
    metrics = end_to_end_metrics()
    for side in (0, 1):
        print(f"warm-up build and run: {trees[side]}", file=sys.stderr)
        run_once(trees[side], args.workload, args.seed, 1)
    runs = alternate(args.pairs, lambda side: run_once(
        trees[side], args.workload, args.seed, args.seconds))

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} "
          f"alternating {args.seconds:g} s pairs; base {args.base}, "
          f"change {args.change}")
    for name, unit, better in metrics:
        base = [values[name] for values, _ in runs[0]]
        change = [values[name] for values, _ in runs[1]]
        print(summarize(name, unit, better, base, change))
        print_samples(base, change)
    digests = [{digest for _, digest in runs[side]} for side in (0, 1)]
    steady = True
    for side, label in ((0, "base"), (1, "change")):
        if len(digests[side]) != 1:
            steady = False
            print(f"{label} runs printed different digests: "
                  + "; ".join(sorted(digests[side])))
    if steady:
        same = "equal" if digests[0] == digests[1] else "DIFFERENT"
        print(f"digests ({same}): base {digests[0].pop()}, "
              f"change {digests[1].pop()}")
    return 0 if steady else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", help="git revision or source directory")
    ap.add_argument("change", help="git revision or source directory")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="perfbench workload")
    mode.add_argument("--bench", metavar="SUITE",
                      help="Google-Benchmark suite: builds bench_SUITE")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20,
                    help="perfbench seconds per run")
    ap.add_argument("--seed", type=int, default=1, help="perfbench seed")
    ap.add_argument("--filter", default="",
                    help="--benchmark_filter regex for --bench")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.filter and not args.bench:
        ap.error("--filter needs --bench")

    with Trees([args.base, args.change]) as trees:
        if args.bench:
            return main_bench(args, trees)
        return main_perfbench(args, trees)


if __name__ == "__main__":
    sys.exit(main())
