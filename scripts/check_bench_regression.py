#!/usr/bin/env python3
"""Gate one benchmark run on its exact work counters and result digest.

Usage (from the repository root):
    check_bench_regression.py RESULT BASELINE WORKLOAD

    python3 perf/run.py --workload W --trace 1 > result.txt
    python3 scripts/check_bench_regression.py result.txt ci/perf_counters.json W

RESULT is what perf/run.py printed on standard output; its last non-empty
line is the result object
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
BASELINE maps each workload to the counters it gates (its "_comment" key
says which and why).  The counters are exact: the same source tree gives
the same counts on any machine and at any thread count.  So an increase
is a regression (an extra solve, more CG iterations, a lost cache hit),
and a decrease is a real change too.  Either way, the baseline is
refreshed in the same change and the PR says why the counts moved (see
CONTRIBUTING.md, "Refreshing the counter baseline").

The baseline's "digest" is the workload's result digest (the Table II
rows, the streamed JSONL bytes, or transient_digest), so a change that
moves a result without moving a count fails too.  The result line does
not carry it: it is read from the full report perf/run.py wrote for the
same run, the .bench_out/<workload>-<seed>-trace1.json whose metrics equal
RESULT's.

One baseline counter is derived rather than read: core.pipeline_checkouts
= core.pipeline_constructions + core.pipeline_reuses.  The split between
the two depends on thread timing; the sum does not.  A pipeline is
checked out once per cache miss, and by the transient engine once per
distinct phase whose steady field it converges and once per segment run
it integrates.  A phase belongs to at least one segment, and a segment is
integrated at most twice (speculatively from its predecessor's steady
field, and again from its predecessor's end field if that did not
settle); a segment that shares its (start, phase, duration) with an
earlier one checks out none.  So one invariant is checked besides, on any
run: core.solves <= checkouts <= core.solves + 3 * transient.segments.
Wall time is not gated here.

Exit status: 0 = correct run, digest and every counter equal to the
    baseline;
1 = incorrect run, failed operations, a digest or counter that differs,
    or checkouts outside their bounds;
2 = unreadable input, an unknown workload, or no report for RESULT.
"""

import argparse
import json
import sys
from pathlib import Path

# Where perf/run.py writes its full reports.
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


def bad_input(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def read_json(path, last_line=False):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if last_line:
            lines = text.strip().splitlines()
            text = lines[-1] if lines else ""
        return json.loads(text)
    except (OSError, ValueError) as exc:
        bad_input(f"cannot read {path}: {exc}")


def result_digest(workload, values):
    """The digest in the report of the run whose metrics are `values`."""
    for path in sorted(OUT_DIR.glob(f"{workload}-*-trace1.json")):
        report = read_json(path)
        metrics = report.get("metrics", {})
        if all(metrics.get(name) == value for name, value in values.items()):
            return report["runs"][0]["digest"]
    bad_input(f"no report in {OUT_DIR} matches the result line; run "
              "perf/run.py --trace 1 from this tree")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", help="perf/run.py --trace 1 standard output")
    parser.add_argument("baseline", help="ci/perf_counters.json")
    parser.add_argument("workload")
    args = parser.parse_args()

    result = read_json(args.result, last_line=True)
    baseline = read_json(args.baseline)
    expected = baseline.get(args.workload)
    if not isinstance(expected, dict):
        bad_input(f"{args.baseline}: unknown workload {args.workload!r}")
    try:
        correct, failed = result["correct"], result["failed"]
        values = {name: m["value"] for name, m in result["metrics"].items()}
        values["digest"] = result_digest(args.workload, values)
        values["core.pipeline_checkouts"] = (
            values["core.pipeline_constructions"] +
            values["core.pipeline_reuses"])
        current = {name: values[name] for name in expected}
        solves = values["core.solves"]
        segments = values["transient.segments"]
        checkouts = values["core.pipeline_checkouts"]
    except (KeyError, TypeError, IndexError) as exc:
        bad_input(f"{args.result}: not a --trace 1 result line ({exc!r})")

    failures = []
    if correct is not True or failed:
        failures.append(f"run not correct: correct={correct}, failed={failed}"
                        " (perf/run.py standard error says why)")
    changed = [name for name in expected if current[name] != expected[name]]
    for name, want in expected.items():
        status = "FAIL" if name in changed else "ok"
        print(f"{status:4}  {args.workload} {name}: {current[name]} "
              f"(baseline {want})")
    failures += [f"{name} {expected[name]} -> {current[name]}"
                 for name in changed]
    bounded = solves <= checkouts <= solves + 3 * segments
    print(f"{'ok' if bounded else 'FAIL':4}  {args.workload} pipeline "
          f"checkouts: {solves} <= {checkouts} <= {solves} + 3 * {segments} "
          "(core.solves + 3 * transient.segments)")
    if not bounded:
        failures.append(f"pipeline checkouts {checkouts} outside "
                        f"[{solves}, {solves + 3 * segments}] (only a cache "
                        "miss, a phase's steady start or a segment run may "
                        "check one out)")

    if failures:
        print(f"\n{args.workload}: " + "; ".join(failures))
        if changed:
            print("If the change is intended, refresh its baseline entry "
                  "with:\n" + json.dumps({args.workload: current}))
        return 1
    print(f"\n{args.workload}: all {len(expected)} baseline entries match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
