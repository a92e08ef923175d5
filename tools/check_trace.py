#!/usr/bin/env python3
"""Validate Chrome Trace Event JSON emitted by obs::TraceSession.

Stdlib only (runs in bare CI images). Checks:

  * the file is valid JSON of the shape {"traceEvents": [...]}
  * every event carries name/ph/pid/tid, a numeric ts >= 0 (metadata "M"
    events are exempt from ts), and a known phase (B E b e i M)
  * non-metadata timestamps are monotonically non-decreasing in file
    order (the exporter sorts before writing)
  * duration events balance: per (pid, tid) every "E" closes the latest
    "B" and nothing is left open at the end
  * async events balance: per (cat, id, name) the b/e counts match and
    the running count never goes negative
  * failure-semantics instants ("fault", "retry", "timeout", "abort"
    from the fault injector / RetryPolicy) are "i" events, and every
    "timeout" instant falls inside some completed "watchdog" async span
    (inclusive: the watchdog fires at the deadline, the span closes at
    settle time >= the deadline)
  * at least --min-events non-metadata events (an empty trace usually
    means no session was attached)

Optional:
  --same OTHER      byte-compare against a second trace (determinism)
  --metrics CSV     validate an obs::MetricsRegistry CSV artifact
  --selftest        run the built-in self-checks and exit

Exit code 0 on success, 1 on validation failure, 2 on usage error.
"""

import argparse
import io
import json
import sys

KNOWN_PHASES = {"B", "E", "b", "e", "i", "M"}

# Instant names emitted by the failure-semantics layer (fault::Injector
# on the bus track, cam::RetryPolicy on its own track).
FAULT_INSTANTS = {"fault", "retry", "timeout", "abort"}


def fail(msg):
    print(f"check_trace: FAIL: {msg}")
    return 1


def check_trace_obj(doc, min_events):
    """Validate a parsed trace document. Returns a list of error strings."""
    errors = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ['top level must be {"traceEvents": [...]}']
    events = doc["traceEvents"]
    last_ts = None
    open_spans = {}  # (pid, tid) -> open "B" count
    async_open = {}  # (cat, id, name) -> running b/e count
    watchdog_begins = {}  # (cat, id) -> stack of open "watchdog" begin ts
    watchdog_spans = []  # completed (begin_ts, end_ts) watchdog intervals
    timeout_marks = []  # (event index, ts) of "timeout" instants
    non_meta = 0
    for i, ev in enumerate(events):
        where = f"event #{i}"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                errors.append(f"{where}: missing '{key}'")
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if ph == "M":
            continue
        non_meta += 1
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            errors.append(f"{where}: ts {ts} < previous {last_ts} (not monotonic)")
        last_ts = ts
        track = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            open_spans[track] = open_spans.get(track, 0) + 1
        elif ph == "E":
            if open_spans.get(track, 0) <= 0:
                errors.append(f"{where}: 'E' with no open 'B' on track {track}")
            else:
                open_spans[track] -= 1
        elif ph in ("b", "e"):
            if "id" not in ev:
                errors.append(f"{where}: async event missing 'id'")
                continue
            key = (ev.get("cat"), ev["id"], ev.get("name"))
            if ph == "b":
                async_open[key] = async_open.get(key, 0) + 1
                if ev.get("name") == "watchdog":
                    watchdog_begins.setdefault(key[:2], []).append(ts)
            else:
                if async_open.get(key, 0) <= 0:
                    errors.append(f"{where}: 'e' with no open 'b' for {key}")
                else:
                    async_open[key] -= 1
                    if ev.get("name") == "watchdog":
                        begins = watchdog_begins.get(key[:2])
                        if begins:
                            watchdog_spans.append((begins.pop(), ts))
        elif ph == "i" and ev.get("name") == "timeout":
            timeout_marks.append((i, ts))
    for track, n in sorted(open_spans.items(), key=str):
        if n:
            errors.append(f"track {track}: {n} unclosed 'B' span(s)")
    for key, n in sorted(async_open.items(), key=str):
        if n:
            errors.append(f"async {key}: {n} unclosed 'b' event(s)")
    # Every deadline miss must be attributable to an armed watchdog: the
    # "timeout" instant fires at the deadline, and its policy's
    # retrospective "watchdog" span [armed, settled] contains it.
    for i, ts in timeout_marks:
        if not any(b <= ts <= e for b, e in watchdog_spans):
            errors.append(
                f"event #{i}: 'timeout' instant at ts {ts} not inside any "
                "completed 'watchdog' span")
    if non_meta < min_events:
        errors.append(f"only {non_meta} non-metadata events (need >= {min_events})")
    return errors


def check_trace_file(path, min_events):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    return [f"{path}: {e}" for e in check_trace_obj(doc, min_events)]


def check_metrics_csv(stream, path="<metrics>"):
    errors = []
    header = stream.readline().rstrip("\n")
    cols = header.split(",")
    if not cols or cols[0] != "time_us":
        return [f"{path}: header must start with 'time_us', got {header!r}"]
    if len(cols) < 2:
        errors.append(f"{path}: no gauge columns in header")
    last_t = None
    n_rows = 0
    for lineno, line in enumerate(stream, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(cols):
            errors.append(
                f"{path}:{lineno}: {len(parts)} fields, header has {len(cols)}")
            continue
        try:
            values = [float(p) for p in parts]
        except ValueError as e:
            errors.append(f"{path}:{lineno}: {e}")
            continue
        t = values[0]
        if last_t is not None and t < last_t:
            errors.append(f"{path}:{lineno}: time {t} < previous {last_t}")
        last_t = t
        n_rows += 1
    if n_rows == 0:
        errors.append(f"{path}: no data rows")
    return errors


def check_metrics_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return check_metrics_csv(f, path)
    except OSError as e:
        return [f"{path}: {e}"]


def selftest():
    ok_doc = {
        "traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "p"}},
            {"name": "run", "ph": "B", "pid": 1, "tid": 1, "ts": 0.0},
            {"name": "queue", "ph": "b", "cat": "txn", "id": 7, "pid": 1,
             "tid": 2, "ts": 0.5},
            {"name": "queue", "ph": "e", "cat": "txn", "id": 7, "pid": 1,
             "tid": 2, "ts": 1.0},
            {"name": "mark", "ph": "i", "pid": 1, "tid": 1, "ts": 1.5, "s": "t"},
            {"name": "run", "ph": "E", "pid": 1, "tid": 1, "ts": 2.0},
        ]
    }
    cases = [
        ("valid trace", ok_doc, 1, 0),
        ("min-events too high", ok_doc, 100, 1),
        ("not a trace", {"foo": 1}, 1, 1),
        ("unbalanced B", {"traceEvents": [
            {"name": "run", "ph": "B", "pid": 1, "tid": 1, "ts": 0.0}]}, 1, 1),
        ("E without B", {"traceEvents": [
            {"name": "run", "ph": "E", "pid": 1, "tid": 1, "ts": 0.0}]}, 1, 1),
        ("non-monotonic", {"traceEvents": [
            {"name": "a", "ph": "i", "pid": 1, "tid": 1, "ts": 2.0, "s": "t"},
            {"name": "b", "ph": "i", "pid": 1, "tid": 1, "ts": 1.0, "s": "t"},
        ]}, 1, 1),
        ("unbalanced async", {"traceEvents": [
            {"name": "q", "ph": "b", "cat": "txn", "id": 1, "pid": 1,
             "tid": 1, "ts": 0.0}]}, 1, 1),
        ("timeout inside watchdog span", {"traceEvents": [
            {"name": "watchdog", "ph": "b", "cat": "txn", "id": 3, "pid": 1,
             "tid": 1, "ts": 0.0},
            {"name": "timeout", "ph": "i", "pid": 1, "tid": 1, "ts": 1.0,
             "s": "t"},
            {"name": "watchdog", "ph": "e", "cat": "txn", "id": 3, "pid": 1,
             "tid": 1, "ts": 2.0},
        ]}, 1, 0),
        ("timeout at watchdog span boundary", {"traceEvents": [
            {"name": "watchdog", "ph": "b", "cat": "txn", "id": 3, "pid": 1,
             "tid": 1, "ts": 0.0},
            {"name": "timeout", "ph": "i", "pid": 1, "tid": 1, "ts": 2.0,
             "s": "t"},
            {"name": "watchdog", "ph": "e", "cat": "txn", "id": 3, "pid": 1,
             "tid": 1, "ts": 2.0},
        ]}, 1, 0),
        ("timeout without watchdog span", {"traceEvents": [
            {"name": "timeout", "ph": "i", "pid": 1, "tid": 1, "ts": 1.0,
             "s": "t"}]}, 1, 1),
        ("timeout outside watchdog span", {"traceEvents": [
            {"name": "watchdog", "ph": "b", "cat": "txn", "id": 3, "pid": 1,
             "tid": 1, "ts": 0.0},
            {"name": "watchdog", "ph": "e", "cat": "txn", "id": 3, "pid": 1,
             "tid": 1, "ts": 1.0},
            {"name": "timeout", "ph": "i", "pid": 1, "tid": 1, "ts": 2.0,
             "s": "t"},
        ]}, 1, 1),
        ("fault and retry instants are plain instants", {"traceEvents": [
            {"name": "fault", "ph": "i", "pid": 1, "tid": 1, "ts": 0.0,
             "s": "t"},
            {"name": "retry", "ph": "i", "pid": 1, "tid": 1, "ts": 1.0,
             "s": "t"},
            {"name": "abort", "ph": "i", "pid": 1, "tid": 1, "ts": 2.0,
             "s": "t"},
        ]}, 1, 0),
    ]
    failures = 0
    for label, doc, min_events, want_errors in cases:
        errors = check_trace_obj(doc, min_events)
        got = 1 if errors else 0
        if got != want_errors:
            print(f"selftest FAIL: {label}: errors={errors}")
            failures += 1
    csv_cases = [
        ("valid csv", "time_us,a,b\n0.1,1,2\n0.2,3,4\n", 0),
        ("bad header", "wall,a\n0.1,1\n", 1),
        ("field mismatch", "time_us,a\n0.1,1,2\n", 1),
        ("non-monotonic time", "time_us,a\n0.2,1\n0.1,2\n", 1),
        ("empty", "time_us,a\n", 1),
    ]
    for label, text, want_errors in csv_cases:
        errors = check_metrics_csv(io.StringIO(text))
        got = 1 if errors else 0
        if got != want_errors:
            print(f"selftest FAIL: {label}: errors={errors}")
            failures += 1
    if failures:
        return 1
    print("check_trace: selftest OK "
          f"({len(cases)} trace cases, {len(csv_cases)} csv cases)")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trace", nargs="?", help="trace JSON to validate")
    ap.add_argument("--same", metavar="OTHER",
                    help="second trace that must be byte-identical")
    ap.add_argument("--metrics", metavar="CSV",
                    help="metrics CSV artifact to validate")
    ap.add_argument("--min-events", type=int, default=1,
                    help="minimum non-metadata event count (default 1)")
    ap.add_argument("--selftest", action="store_true",
                    help="run built-in self-checks and exit")
    args = ap.parse_args(argv)

    if args.selftest:
        return selftest()
    if not args.trace:
        ap.print_usage()
        print("check_trace: a trace file (or --selftest) is required")
        return 2

    errors = check_trace_file(args.trace, args.min_events)
    if args.same:
        try:
            with open(args.trace, "rb") as a, open(args.same, "rb") as b:
                if a.read() != b.read():
                    errors.append(
                        f"{args.trace} and {args.same} differ (non-deterministic)")
        except OSError as e:
            errors.append(str(e))
    if args.metrics:
        errors.extend(check_metrics_file(args.metrics))

    if errors:
        for e in errors:
            print(f"check_trace: FAIL: {e}")
        return 1
    checked = [args.trace] + ([args.same] if args.same else []) \
        + ([args.metrics] if args.metrics else [])
    print(f"check_trace: OK ({', '.join(checked)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
