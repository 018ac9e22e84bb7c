#!/usr/bin/env python3
"""Gate one benchmark run on its exact work counters.

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
CONTRIBUTING.md, "Refreshing the counter baseline").  Wall time is not
gated here.

Exit status: 0 = correct run and every counter equal to the baseline;
1 = incorrect run, failed operations, or a counter that differs;
2 = unreadable input or an unknown workload.
"""

import argparse
import json
import sys


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
        current = {name: result["metrics"][name]["value"] for name in expected}
    except (KeyError, TypeError) as exc:
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

    if failures:
        print(f"\n{args.workload}: " + "; ".join(failures))
        if changed:
            print("If the change is intended, refresh its baseline entry "
                  "with:\n" + json.dumps({args.workload: current}))
        return 1
    print(f"\n{args.workload}: all {len(expected)} counters match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
