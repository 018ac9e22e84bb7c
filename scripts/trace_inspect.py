#!/usr/bin/env python3
"""Validate and summarize a tpcool Chrome trace (tpcool-trace-v1).

Usage:
    trace_inspect.py TRACE.json [--verify]

TRACE.json is a Chrome trace-event file written by
Telemetry::export_chrome_trace (env TPCOOL_TRACE_FILE; format documented
in docs/TRACING.md).  The file also embeds the metrics snapshot under a
top-level "metrics" key, which lets this script cross-check spans against
counters without a second file.

Default output: event and span counts, per-thread span counts, top span
names by count and total duration, and the counter totals.

--verify re-validates the structural invariants the exporter guarantees
and exits non-zero on the first violation:
  * the JSON parses and carries schema "tpcool-trace-v1";
  * every "X" event has a name, pid, tid, and finite ts >= 0, dur >= 0;
  * per thread, span *end* times are non-decreasing in file order (the
    exporter preserves ring order, which is span completion order);
  * per thread, spans nest properly: treating each "X" event as a
    [ts, ts+dur] scope, scopes overlap only by containment;
  * the number of "solve" spans equals the metrics counter
    "solve.executed" when no spans were dropped (with drops, recorded
    spans may be fewer — never more);
  * metrics "spans" equals the number of "X" events;
  * every "fleet.interval" span has args with
    solves <= lookups <= requests: the engine executes at most one solve
    per cache lookup and asks the cache at most once per job request.

Exit status: 0 = OK, 1 = malformed trace (--verify), 2 = bad invocation
or an unreadable/unparseable file.
"""

import argparse
import json
import sys
from collections import defaultdict

SCHEMA = "tpcool-trace-v1"

# Span end-time comparisons tolerate the exporter's microsecond rounding:
# ts and dur are each rounded to 1 ns = 0.001 us, so a nested span's
# rounded end can exceed its parent's by up to 0.002 us.
EPSILON_US = 0.002


class TraceError(Exception):
    """A structural invariant violation (exit 1 under --verify)."""


def load_trace(path):
    try:
        with open(path, "rb") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        print(f"trace_inspect: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)


def check_schema(trace):
    schema = trace.get("otherData", {}).get("schema")
    if schema != SCHEMA:
        raise TraceError(f"schema is {schema!r}, want {SCHEMA!r}")
    if not isinstance(trace.get("traceEvents"), list):
        raise TraceError("traceEvents missing or not a list")
    if not isinstance(trace.get("metrics"), dict):
        raise TraceError("embedded metrics object missing")


def span_events(trace):
    """The complete ("X") events, in file order, with field validation."""
    spans = []
    for i, event in enumerate(trace["traceEvents"]):
        if not isinstance(event, dict) or "ph" not in event:
            raise TraceError(f"traceEvents[{i}] is not a phased event")
        if event["ph"] == "M":
            continue  # metadata: process/thread names
        if event["ph"] != "X":
            raise TraceError(
                f"traceEvents[{i}] has unexpected phase {event['ph']!r}"
            )
        for field in ("name", "ts", "dur", "pid", "tid"):
            if field not in event:
                raise TraceError(f"traceEvents[{i}] lacks {field!r}")
        ts, dur = event["ts"], event["dur"]
        if not isinstance(ts, (int, float)) or ts < 0:
            raise TraceError(f"traceEvents[{i}] has bad ts {ts!r}")
        if not isinstance(dur, (int, float)) or dur < 0:
            raise TraceError(f"traceEvents[{i}] has bad dur {dur!r}")
        spans.append(event)
    return spans


def check_monotonic_ends(spans):
    """Per thread, end times never decrease in file order (ring order)."""
    last_end = {}
    for event in spans:
        tid = event["tid"]
        end = event["ts"] + event["dur"]
        if tid in last_end and end < last_end[tid] - EPSILON_US:
            raise TraceError(
                f"thread {tid}: span {event['name']!r} ends at {end:.3f} us, "
                f"before the previous span's end {last_end[tid]:.3f} us "
                "(ring order must be completion order)"
            )
        last_end[tid] = max(last_end.get(tid, 0.0), end)


def check_nesting(spans):
    """Per thread, [ts, ts+dur] scopes overlap only by containment.

    Spans are sorted by (ts, -dur) so a parent precedes its children; a
    stack then replays scope entry/exit.  A span starting inside the
    stack top but ending after it is a partial overlap — impossible for
    RAII scopes recorded on one thread, so it flags a corrupt trace.
    """
    per_thread = defaultdict(list)
    for event in spans:
        per_thread[event["tid"]].append(event)
    for tid, events in per_thread.items():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for event in events:
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and start >= stack[-1][1] - EPSILON_US:
                stack.pop()
            if stack and end > stack[-1][1] + EPSILON_US:
                raise TraceError(
                    f"thread {tid}: span {event['name']!r} "
                    f"[{start:.3f}, {end:.3f}] us partially overlaps "
                    f"enclosing span {stack[-1][0]!r} ending at "
                    f"{stack[-1][1]:.3f} us"
                )
            stack.append((event["name"], end))


def check_counters(trace, spans):
    metrics = trace["metrics"]
    dropped = metrics.get("dropped_spans", 0)
    recorded = metrics.get("spans", 0)
    if recorded != len(spans):
        raise TraceError(
            f"metrics report {recorded} spans but the trace has {len(spans)}"
        )
    solve_spans = sum(1 for e in spans if e["name"] == "solve")
    executed = metrics.get("counters", {}).get("solve.executed")
    if executed is not None:
        # Counters are exact even when rings overflow; spans can only be
        # dropped, never invented.
        if dropped == 0 and solve_spans != executed:
            raise TraceError(
                f"{solve_spans} solve spans vs solve.executed={executed:g} "
                "with no dropped spans"
            )
        if solve_spans > executed:
            raise TraceError(
                f"{solve_spans} solve spans exceed solve.executed={executed:g}"
            )


def check_fleet_intervals(spans):
    """solves <= lookups <= requests on every fleet.interval span."""
    for event in spans:
        if event["name"] != "fleet.interval":
            continue
        args = event.get("args", {})
        missing = [k for k in ("solves", "lookups", "requests")
                   if k not in args]
        if missing:
            raise TraceError(f"fleet.interval span lacks args {missing}")
        solves, lookups, requests = (
            args["solves"], args["lookups"], args["requests"])
        if not solves <= lookups <= requests:
            raise TraceError(
                f"fleet.interval {args.get('interval', '?')!r}: want "
                f"solves <= lookups <= requests, got {solves:g}, "
                f"{lookups:g}, {requests:g}"
            )


def summarize(trace, spans):
    metrics = trace["metrics"]
    by_name = defaultdict(lambda: [0, 0.0])
    by_tid = defaultdict(int)
    for event in spans:
        by_name[event["name"]][0] += 1
        by_name[event["name"]][1] += event["dur"]
        by_tid[event["tid"]] += 1
    print(f"events:        {len(trace['traceEvents'])}")
    print(
        f"spans:         {len(spans)} across {len(by_tid)} thread(s), "
        f"{metrics.get('dropped_spans', 0)} dropped"
    )
    for tid in sorted(by_tid):
        print(f"  tid {tid}: {by_tid[tid]} span(s)")
    print("span totals (count, total ms):")
    for name, (count, dur_us) in sorted(
        by_name.items(), key=lambda item: -item[1][1]
    ):
        print(f"  {name:<22} {count:>8}  {dur_us / 1000.0:>12.3f}")
    counters = metrics.get("counters", {})
    if counters:
        print("counters:")
        for name in sorted(counters):
            print(f"  {name:<28} {counters[name]:g}")
    histograms = metrics.get("histograms", {})
    if histograms:
        print("histograms (count, sum, min, max):")
        for name in sorted(histograms):
            h = histograms[name]
            print(
                f"  {name:<22} {h['count']:>8}  {h['sum']:>12.3f}  "
                f"{h['min']:g} .. {h['max']:g}"
            )


def main():
    parser = argparse.ArgumentParser(
        description="Validate and summarize a tpcool Chrome trace."
    )
    parser.add_argument("trace", help="trace JSON written by TPCOOL_TRACE_FILE")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="exit non-zero on any structural violation",
    )
    args = parser.parse_args()

    trace = load_trace(args.trace)
    try:
        check_schema(trace)
        spans = span_events(trace)
        check_monotonic_ends(spans)
        check_nesting(spans)
        check_counters(trace, spans)
        check_fleet_intervals(spans)
    except TraceError as error:
        print(f"trace_inspect: MALFORMED: {error}", file=sys.stderr)
        if args.verify:
            sys.exit(1)
        sys.exit(0)

    summarize(trace, spans)
    if args.verify:
        print("verify: OK")


if __name__ == "__main__":
    main()
