#!/usr/bin/env python3
"""Gate bench-performance regressions against a checked-in baseline.

Usage:
    check_bench_regression.py CURRENT.json BASELINE.json [--max-regress 0.25]

Both files must carry the same schema, one of:
  - tpcool-solver-bench-v1      (solver_scaling --json): per case
    solve_ms + CG iterations
  - tpcool-experiment-bench-v1  (experiment_scaling --json): per case
    solve_ms + coupled-solve count ("iterations"; cache hits are
    informational)
  - tpcool-datacenter-bench-v1  (datacenter_scaling --json): per case
    solve_ms + coupled-solve count ("iterations"; cache hits and
    pipeline-pool constructions/reuses are informational)
  - tpcool-transient-bench-v1   (transient_scaling --json): per case
    solve_ms + coupled-solve count ("iterations") + accepted transient
    step count ("steps"; cache hits and rejected retries are
    informational)
  - tpcool-streaming-bench-v1   (streaming_scaling --json): per case
    solve_ms + coupled-solve count ("iterations") + emitted fleet
    interval count ("steps"; cache hits and the engine's peak
    held-interval count are informational — the bench itself fails hard
    when peak_held exceeds the documented bound)
  - tpcool-control-bench-v1     (control_scaling --json): per case
    solve_ms + coupled-solve count ("iterations") + emitted fleet
    interval count ("steps"; cache hits are informational — the bench
    itself fails hard on a cross-thread digest divergence or a
    controlled run outside the PUE acceptance band)

A case regresses when any compared metric exceeds the baseline by more
than --max-regress (relative).  Iteration/solve/hit counts are
machine-independent — the solver and the experiment engine are
deterministic for any thread count — so they catch algorithmic
regressions (extra CG iterations, a lost cache hit, a duplicated solve)
even on noisy CI runners; times catch constant-factor ones.

Cases present in only one of the two files are reported but do not fail
the check (the baseline is refreshed whenever cases are added/renamed —
see CONTRIBUTING.md "Refreshing bench baselines").

Exit status: 0 = OK, 1 = regression, 2 = bad invocation/input.
"""

import argparse
import json
import sys

KNOWN_SCHEMAS = ("tpcool-solver-bench-v1", "tpcool-experiment-bench-v1",
                 "tpcool-datacenter-bench-v1", "tpcool-transient-bench-v1",
                 "tpcool-streaming-bench-v1", "tpcool-control-bench-v1")

# Metrics compared per schema; a metric missing from either file is skipped.
# "hits" is emitted for information only: a lost cache hit already shows up
# as extra "iterations" (misses), and gating hits upward would flag
# legitimate improvements that deduplicate more solves.  Pipeline-pool
# "constructions"/"reuses" (datacenter schema) depend on chunk timing at
# >1 thread, so they are never gated.  "steps" (transient schema) is the
# accepted transient step count — deterministic for any thread count, so a
# controller regression that doubles the stepping shows up even on noisy
# runners; "rejected" retries are informational.
METRICS = ("solve_ms", "iterations", "steps")


def load_doc(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") not in KNOWN_SCHEMAS:
        print(f"{path}: unexpected schema {doc.get('schema')!r}",
              file=sys.stderr)
        sys.exit(2)
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--max-regress", type=float, default=0.25,
                        help="allowed relative slowdown (default 0.25)")
    args = parser.parse_args()

    current_doc = load_doc(args.current)
    baseline_doc = load_doc(args.baseline)
    if current_doc["schema"] != baseline_doc["schema"]:
        print(f"schema mismatch: {current_doc['schema']} vs "
              f"{baseline_doc['schema']}", file=sys.stderr)
        sys.exit(2)

    current = {case["name"]: case for case in current_doc.get("cases", [])}
    baseline = {case["name"]: case for case in baseline_doc.get("cases", [])}

    failures = []
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            print(f"NOTE  {name}: missing from current run")
            continue
        for metric in METRICS:
            if metric not in base or metric not in cur:
                continue
            base_v, cur_v = base[metric], cur[metric]
            if base_v <= 0:
                continue
            ratio = cur_v / base_v
            status = "FAIL" if ratio > 1.0 + args.max_regress else "ok"
            print(f"{status:4}  {name} {metric}: {cur_v:.3f} vs "
                  f"baseline {base_v:.3f} ({ratio:.0%} of baseline)")
            if status == "FAIL":
                failures.append(f"{name} {metric}")

    for name in sorted(set(current) - set(baseline)):
        print(f"NOTE  {name}: not in baseline (refresh the baseline file)")

    if failures:
        print(f"\n{len(failures)} regression(s) beyond "
              f"{args.max_regress:.0%}: {', '.join(failures)}")
        return 1
    print("\nno bench regressions beyond "
          f"{args.max_regress:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
