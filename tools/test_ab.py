#!/usr/bin/env python3
"""CTest guard for the statistics of tools/ab.py, on canned samples.

Checks the median and interquartile range, the pair count with each
metric's direction and with ties, the exact two-sided sign test, one
formatted summary line, the --bench mode's reading of a canned
Google-Benchmark document, and the pair alternation.
"""

import importlib.util
import os
import sys

spec = importlib.util.spec_from_file_location(
    "ab", os.path.join(os.path.dirname(os.path.abspath(__file__)), "ab.py"))
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

failures = []


def check(what, got, want, tol=1e-12):
    ok = abs(got - want) <= tol if isinstance(want, float) else got == want
    if not ok:
        failures.append(f"{what}: got {got!r}, want {want!r}")


# Median: odd and even counts, order-free.
check("median odd", ab.median([3, 1, 2]), 2)
check("median even", ab.median([4, 1, 3, 2]), 2.5)

# Quartiles by linear interpolation: 1..10 -> 3.25 and 7.75.
q1, q3 = ab.quartiles(list(range(10, 0, -1)))
check("q1", q1, 3.25)
check("q3", q3, 7.75)
check("iqr", ab.iqr([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 4.5)
check("iqr single", ab.iqr([7.0]), 0.0)

# Pairs won honour the direction and count ties apart.
base = [10, 10, 10, 10]
change = [9, 11, 10, 8]
check("wins lower", ab.pairs_won(base, change, "lower"), (2, 1))
check("wins higher", ab.pairs_won(base, change, "higher"), (1, 1))

# Exact sign test, two-sided: 10 of 10 -> 2/1024, 9 of 10 -> 22/1024,
# 0 of 10 the same as 10 of 10, an even split -> 1.
check("p 10/10", ab.sign_test_p(10, 10), 2 / 1024)
check("p 9/10", ab.sign_test_p(9, 10), 22 / 1024)
check("p 0/10", ab.sign_test_p(0, 10), 2 / 1024)
check("p 5/10", ab.sign_test_p(5, 10), 1.0)
check("p 5/5", ab.sign_test_p(5, 5), 2 / 32)
check("p no pairs", ab.sign_test_p(0, 0), 1.0)

line = ab.summarize("host_ns_per_txn", "ns", "lower",
                    [137.0, 138.0, 136.0, 140.0, 139.0],
                    [128.0, 127.0, 129.0, 138.0, 139.0])
want = ("host_ns_per_txn (ns, lower is better), 5 pairs: base median 138, "
        "change median 129 (-6.5%), base IQR 2; change better in 4 of 5 "
        "pairs (1 tied), sign test p = 0.125")
check("summary", line, want)

# --bench: a canned Google-Benchmark document. Iteration rows are kept
# by name with their real_time and unit; aggregate rows are skipped.
doc = {"context": {"executable": "./bench_kernel"}, "benchmarks": [
    {"name": "BM_ImmediatePingPong", "run_type": "iteration",
     "real_time": 258121.0, "cpu_time": 258038.0, "time_unit": "ns",
     "ctx_switches": 4098.0},
    {"name": "BM_LoneClock", "run_type": "iteration",
     "real_time": 370.751, "time_unit": "us"},
    {"name": "BM_LoneClock_median", "run_type": "aggregate",
     "aggregate_name": "median", "real_time": 1.0, "time_unit": "us"},
]}
check("bench rows", ab.bench_rows(doc),
      {"BM_ImmediatePingPong": (258121.0, "ns"),
       "BM_LoneClock": (370.751, "us")})
line = ab.summarize("BM_ImmediatePingPong real_time", "ns", "lower",
                    [258121.0, 251000.0, 262000.0],
                    [167092.0, 170000.0, 165000.0])
want = ("BM_ImmediatePingPong real_time (ns, lower is better), 3 pairs: "
        "base median 258121, change median 167092 (-35.3%), base IQR 5500; "
        "change better in 3 of 3 pairs, sign test p = 0.25")
check("bench summary", line, want)

# Pairs alternate which side runs first.
order = []
runs = ab.alternate(3, lambda side: order.append(side) or side)
check("alternation", order, [0, 1, 1, 0, 0, 1])
check("alternate results", runs, ([0, 0, 0], [1, 1, 1]))

try:
    ab.pairs_won([1, 2], [1], "lower")
    failures.append("unpaired samples accepted")
except ValueError:
    pass

if failures:
    print("\n".join(failures))
    sys.exit(1)
print("test_ab: OK")
