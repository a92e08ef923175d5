#!/usr/bin/env python3
"""Append a benchmark-history entry (see bench/history/README.md).

Usage:
    python3 bench/append_history.py BUILD_DIR SHORT_LABEL

Copies BUILD_DIR/BENCH_cam.json and BUILD_DIR/BENCH_exploration.json
(and BUILD_DIR/BENCH_abstraction.json and BUILD_DIR/BENCH_kernel.json
when present) into
bench/history/NNNN-SHORT_LABEL/ where NNNN is one past the highest
existing entry number. Refuses to overwrite and validates that each file
is Google-Benchmark JSON (has a "benchmarks" list) before copying.

Also distils a summary.json into the entry: real_time plus the kernel
observability counters (ctx_switches, fast_hit_rate) for the grid
benchmarks, so the "did the wall-clock move because scheduling changed"
question is answerable from the history alone, without re-parsing the
full benchmark documents. With BENCH_abstraction.json, the summary's
"ladder" table adds the host time per message of each abstraction rung
and BM_Pin's simulated time (sim_us, which must never move).
"""

import json
import re
import shutil
import sys
from pathlib import Path

SUITES = ("BENCH_cam.json", "BENCH_exploration.json")
OPTIONAL_SUITES = ("BENCH_abstraction.json", "BENCH_kernel.json")

# Benchmarks whose per-PR trajectory the summary tracks; substring match
# against the emitted row names (which carry /arg/real_time suffixes).
SUMMARY_BENCHES = ("BM_ExploreGrid", "BM_ExploreFastGrid")
SUMMARY_COUNTERS = ("ctx_switches", "fast_hit_rate")


def summarize(exploration_doc: dict) -> dict:
    """Digest of the grid rows: real_time + observability counters."""
    out = {}
    for row in exploration_doc.get("benchmarks", []):
        name = row.get("name", "")
        if not any(name.startswith(b + "/") for b in SUMMARY_BENCHES):
            continue
        entry = {"real_time": row.get("real_time"),
                 "time_unit": row.get("time_unit")}
        for counter in SUMMARY_COUNTERS:
            if counter in row:
                entry[counter] = row[counter]
        out[name] = entry
    return out


# The abstraction ladder's rungs (bench_abstraction), top to bottom.
LADDER_BENCHES = ("BM_ComponentAssembly", "BM_Ccatb", "BM_Cam", "BM_Pin")


def summarize_ladder(abstraction_doc: dict) -> dict:
    """Host ns per message for each rung, plus BM_Pin's sim_us."""
    out = {}
    for row in abstraction_doc.get("benchmarks", []):
        name = row.get("name", "")
        if name not in LADDER_BENCHES or not row.get("items_per_second"):
            continue
        entry = {"host_ns_per_msg": 1e9 / row["items_per_second"]}
        if name == "BM_Pin" and "sim_us" in row:
            entry["sim_us"] = row["sim_us"]
        out[name] = entry
    return out


def fail(msg: str) -> "None":
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    build_dir = Path(sys.argv[1])
    label = sys.argv[2]
    if not re.fullmatch(r"[a-z0-9][a-z0-9-]*", label):
        fail(f"label {label!r} must be lowercase-kebab (it becomes a "
             "directory name)")

    sources = []
    summary = {}
    for name in SUITES + OPTIONAL_SUITES:
        src = build_dir / name
        if not src.is_file():
            if name in OPTIONAL_SUITES:
                continue
            fail(f"{src} not found — run the benchmark with "
                 f"--benchmark_out={name} --benchmark_out_format=json first")
        try:
            with open(src) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"{src} is not readable JSON: {e}")
        if not isinstance(doc.get("benchmarks"), list) or not doc["benchmarks"]:
            fail(f"{src} has no 'benchmarks' rows — not benchmark JSON?")
        if name == "BENCH_exploration.json":
            summary.update(summarize(doc))
        elif name == "BENCH_abstraction.json":
            summary["ladder"] = summarize_ladder(doc)
        sources.append(src)

    history = Path(__file__).resolve().parent / "history"
    history.mkdir(exist_ok=True)
    highest = 0
    for entry in history.iterdir():
        m = re.match(r"(\d{4})-", entry.name)
        if entry.is_dir() and m:
            highest = max(highest, int(m.group(1)))
    dest = history / f"{highest + 1:04d}-{label}"
    if dest.exists():
        fail(f"{dest} already exists")
    dest.mkdir()
    for src in sources:
        shutil.copy(src, dest / src.name)
        print(f"  {src} -> {dest / src.name}")
    if summary:
        with open(dest / "summary.json", "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"  grid/ladder digest -> {dest / 'summary.json'}")
    print(f"created {dest.relative_to(history.parent.parent)} — commit it "
          "together with the refreshed bench/baselines/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
