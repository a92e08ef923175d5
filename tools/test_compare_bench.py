#!/usr/bin/env python3
"""CTest guard for bench/compare_bench.py input validation.

Runs the comparator against well-formed, malformed, missing and empty
inputs and checks the exit-code contract: 0 for a clean comparison, 2
for any input that cannot anchor one (the failure mode used to be a
silent "no regressions" pass), and 1 whenever a counter the baseline
lists under "exact_counters" differs, even without --strict. A repeated
run is timed by its median and its counters are checked on every
repetition.
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "bench", "compare_bench.py")

GOOD = {
    "benchmarks": [
        {"name": "BM_A/1", "real_time": 100.0, "time_unit": "ns"},
        {"name": "BM_B/1", "real_time": 2.0, "time_unit": "ms"},
    ]
}
REGRESSED = {
    "benchmarks": [
        {"name": "BM_A/1", "real_time": 500.0, "time_unit": "ns"},
        {"name": "BM_B/1", "real_time": 2.0, "time_unit": "ms"},
    ]
}


def with_counters(doc, exact=None, **values):
    """`doc` with `values` as counters on every row (and an optional
    top-level exact_counters list)."""
    out = {"benchmarks": [dict(b, **values) for b in doc["benchmarks"]]}
    if exact is not None:
        out["exact_counters"] = exact
    return out


def repeated(times_ns, **counters):
    """A --benchmark_repetitions document: BM_A/1 once per entry of
    `times_ns`, then its aggregates as Google Benchmark writes them.
    `counters` maps a counter name to one value per repetition."""
    runs = [dict({"name": "BM_A/1", "run_name": "BM_A/1",
                  "run_type": "iteration", "repetition_index": i,
                  "real_time": t, "time_unit": "ns"},
                 **{c: v[i] for c, v in counters.items()})
            for i, t in enumerate(times_ns)]
    mid = sorted(times_ns)[len(times_ns) // 2]
    aggregates = [{"name": f"BM_A/1_{agg}", "run_name": "BM_A/1",
                   "run_type": "aggregate", "aggregate_name": agg,
                   "real_time": t, "time_unit": "ns"}
                  for agg, t in (("mean", sum(times_ns) / len(times_ns)),
                                 ("median", mid), ("stddev", 1.0),
                                 ("cv", 0.01))]
    return {"benchmarks": runs + aggregates}


def run(baseline, current, *flags):
    return subprocess.run(
        [sys.executable, SCRIPT, baseline, current, *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def main():
    failures = []

    def expect(label, proc, code):
        if proc.returncode != code:
            failures.append(f"{label}: exit {proc.returncode}, wanted {code}\n"
                            f"{proc.stdout}")

    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good.json")
        regressed = os.path.join(tmp, "regressed.json")
        malformed = os.path.join(tmp, "malformed.json")
        empty = os.path.join(tmp, "empty.json")
        with open(good, "w") as f:
            json.dump(GOOD, f)
        with open(regressed, "w") as f:
            json.dump(REGRESSED, f)
        with open(malformed, "w") as f:
            f.write("{not json")
        with open(empty, "w") as f:
            json.dump({"benchmarks": []}, f)
        nondict = os.path.join(tmp, "nondict.json")
        with open(nondict, "w") as f:
            json.dump({"benchmarks": [42, "x"]}, f)
        missing = os.path.join(tmp, "does_not_exist.json")

        def dump(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            return path

        gated = dump("gated.json", with_counters(
            GOOD, ["sim_us", "irqs"], sim_us=128.02, irqs=3.0))
        same = dump("same.json", with_counters(GOOD, sim_us=128.02, irqs=3.0))
        moved = dump("moved.json", with_counters(GOOD, sim_us=128.03, irqs=3.0))
        dropped = dump("dropped.json", with_counters(GOOD, sim_us=128.02))
        slow_same = dump("slow_same.json",
                         with_counters(REGRESSED, sim_us=128.02, irqs=3.0))
        bad_list = dump("bad_list.json", dict(GOOD, exact_counters="sim_us"))
        typo = dump("typo.json", with_counters(GOOD, ["sim_su"], sim_us=1.0))

        expect("identical inputs", run(good, good), 0)
        expect("regression warns only", run(good, regressed), 0)
        expect("regression strict", run(good, regressed, "--strict"), 1)
        expect("malformed baseline", run(malformed, good), 2)
        expect("malformed current", run(good, malformed), 2)
        expect("missing baseline", run(missing, good), 2)
        expect("empty baseline", run(empty, good), 2)
        expect("non-object entries", run(nondict, good), 2)
        expect("exact counters equal", run(gated, same), 0)
        expect("exact counter moved", run(gated, moved), 1)
        expect("exact counter missing", run(gated, dropped), 1)
        expect("exact counters gate only simulated values",
               run(gated, slow_same), 0)
        expect("exact_counters not a list", run(bad_list, good), 2)
        expect("exact counter in no baseline row", run(typo, good), 2)
        # The last repetition is the outlier, so a comparator that kept
        # whichever iteration row came last would fail this strict run.
        one_slow = dump("one_slow.json", repeated([100, 102, 99, 101, 500]))
        all_slow = dump("all_slow.json", repeated([480, 500, 520, 510, 490]))
        expect("median absorbs one slow repetition",
               run(good, one_slow, "--strict"), 0)
        expect("median regression strict", run(good, all_slow, "--strict"), 1)
        gated_reps = dump("gated_reps.json", dict(
            repeated([100] * 5, sim_us=[128.02] * 5), exact_counters=["sim_us"]))
        one_moved = dump("one_moved.json", repeated(
            [100] * 5, sim_us=[128.02, 128.02, 128.03, 128.02, 128.02]))
        expect("exact counters on every repetition",
               run(gated_reps, one_moved), 1)
        expect("help mentions validation",
               run(good, good, "--help"), 0)
        help_text = run(good, good, "--help").stdout
        if "exits with status 2" not in help_text:
            failures.append("--help does not document the validation exit")

    if failures:
        print("\n".join(failures))
        return 1
    print("compare_bench.py exit-code contract holds (18 cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
