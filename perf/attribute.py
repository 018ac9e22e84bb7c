#!/usr/bin/env python3
"""Self-time attribution for a traced tpcool benchmark run.

Usage:
    python3 perf/attribute.py TRACE.json [--json]

TRACE.json is the Chrome trace a traced benchmark run writes
(`python3 perf/run.py --workload W --trace 1` leaves it at
.bench_out/W.trace.json).  The script rebuilds each thread's span tree
and reports, per thread and span name, the span count, total time and
self time (duration minus the time its child spans cover).  It also
reports:

  pool.wait_ms             time the main thread spent blocked while pool
                           threads ran its work (wall minus the thread's
                           CPU time, measured by the driver and stored in
                           the trace as the counter perf.main_wait_ms).
                           It is taken out of the self time of the main
                           thread's fan-out spans, in proportion to their
                           self time: waiting is not engine work.
  trace.unattributed_frac  share of the run's thread time that no layer
                           span explains: the driver's root span's own
                           self time, plus pool-worker busy time not
                           covered by any span, over the root span's
                           duration plus all worker busy time.

Exit status: 0 = OK, 1 = the trace dropped spans (the attribution would
be incomplete), 2 = unreadable input.
"""

import argparse
import json
import sys
from collections import defaultdict

ROOT_SPAN = "perf.run"
# Spans whose body hands work to the pool and then blocks until it is done;
# the main thread's waiting shows up in their self time.
FANOUT_SPANS = ("perf.table2", "fleet.interval", "transient.interval",
                "cache.save")
# Tolerance for the exporter's rounding of ts and dur to 1 ns (0.001 us).
EPSILON_US = 0.002


class Span:
    __slots__ = ("name", "tid", "ts", "dur", "args", "parent", "child_us")

    def __init__(self, event):
        self.name = event["name"]
        self.tid = event["tid"]
        self.ts = float(event["ts"])
        self.dur = float(event["dur"])
        self.args = event.get("args", {})
        self.parent = None
        self.child_us = 0.0

    @property
    def self_us(self):
        return max(0.0, self.dur - self.child_us)

    def within(self, name):
        """True when an enclosing span on the same thread is called name."""
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


def load_trace(path):
    try:
        with open(path, "rb") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        print(f"attribute: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)


def build_spans(trace):
    """Every complete event as a Span, linked to its enclosing span."""
    per_thread = defaultdict(list)
    for event in trace["traceEvents"]:
        if event.get("ph") == "X":
            per_thread[event["tid"]].append(Span(event))
    spans = []
    for events in per_thread.values():
        events.sort(key=lambda s: (s.ts, -s.dur))
        stack = []
        for span in events:
            while stack and span.ts >= stack[-1].ts + stack[-1].dur - EPSILON_US:
                stack.pop()
            if stack:
                span.parent = stack[-1]
                stack[-1].child_us += span.dur
            stack.append(span)
        spans.extend(events)
    return spans


def attribute(trace, spans):
    """Self time per (thread, span name), pool wait and unattributed share."""
    metrics = trace["metrics"]
    counters = metrics.get("counters", {})
    roots = [s for s in spans if s.name == ROOT_SPAN]
    main_tid = roots[0].tid if roots else None
    root_us = sum(s.dur for s in roots)

    table = defaultdict(lambda: {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
    for span in spans:
        row = table[(span.tid, span.name)]
        row["count"] += 1
        row["total_ms"] += span.dur / 1e3
        row["self_ms"] += span.self_us / 1e3

    wait_ms = counters.get("perf.main_wait_ms", 0.0)
    fanout = [(main_tid, n) for n in FANOUT_SPANS if (main_tid, n) in table]
    fanout_self = sum(table[key]["self_ms"] for key in fanout)
    if fanout_self > 0.0:
        taken = min(wait_ms, fanout_self)
        for key in fanout:
            table[key]["self_ms"] -= taken * table[key]["self_ms"] / fanout_self

    worker_busy_ms = sum(
        value for name, value in counters.items()
        if name.startswith("pool.worker") and name.endswith(".busy_ms"))
    worker_covered_ms = sum(
        s.dur / 1e3 for s in spans if s.parent is None and s.tid != main_tid)
    root_self_ms = table[(main_tid, ROOT_SPAN)]["self_ms"] if roots else 0.0
    unattributed_ms = root_self_ms + max(0.0, worker_busy_ms - worker_covered_ms)
    denominator_ms = root_us / 1e3 + worker_busy_ms
    return {
        "main_tid": main_tid,
        "rows": [{"tid": tid, "name": name, **row}
                 for (tid, name), row in sorted(table.items(),
                                                key=lambda kv: (kv[0][0] != main_tid,
                                                                kv[0][0],
                                                                -kv[1]["self_ms"]))],
        "pool.wait_ms": wait_ms,
        "pool.worker_busy_ms": worker_busy_ms,
        "trace.unattributed_ms": unattributed_ms,
        "trace.unattributed_frac":
            unattributed_ms / denominator_ms if denominator_ms > 0 else 0.0,
        "trace.dropped_spans": metrics.get("dropped_spans", 0),
    }


def main():
    parser = argparse.ArgumentParser(
        description="Self time per span name per thread for a benchmark trace.")
    parser.add_argument("trace", help="Chrome trace written by a traced run")
    parser.add_argument("--json", action="store_true",
                        help="print the attribution as JSON")
    args = parser.parse_args()

    trace = load_trace(args.trace)
    report = attribute(trace, build_spans(trace))
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print(f"{'thread':>6}  {'span':<22} {'count':>8} {'total ms':>12} "
              f"{'self ms':>12}")
        for row in report["rows"]:
            tid = "main" if row["tid"] == report["main_tid"] else row["tid"]
            print(f"{tid:>6}  {row['name']:<22} {row['count']:>8} "
                  f"{row['total_ms']:>12.3f} {row['self_ms']:>12.3f}")
        print(f"pool.wait_ms            {report['pool.wait_ms']:.3f}")
        print(f"trace.unattributed_frac {report['trace.unattributed_frac']:.4f}")
        print(f"trace.dropped_spans     {report['trace.dropped_spans']}")
    if report["trace.dropped_spans"] > 0:
        print("attribute: the trace dropped spans; raise the ring capacity",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
