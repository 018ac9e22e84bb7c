#!/usr/bin/env python3
"""Run one tpcool benchmark workload and print its metrics.

Usage (from the repository root):
    python3 perf/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds the driver (perf/CMakeLists.txt: the library plus perf/driver.cpp,
Release) into $CARGO_TARGET_DIR or .bench_build, runs it with its
scratch files under .bench_out, checks its outputs and prints one JSON
object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb, coupling_error_c); --trace 1 reports the per-layer metrics
of one traced run.  perf/README.md defines every metric and workload.  A
readable summary, with quartiles, goes to standard error, and the full
report to .bench_out/<workload>-<seed>-trace<0|1>.json.

Exit status: 0 when a result was printed (correct or not); 1 when the
benchmark could not run at all (no source tree, build failure, driver
crash).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import attribute

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = ROOT / ".bench_out"
DRIVER_TIMEOUT_S = 170
# Counters that must repeat exactly between runs of one binary.
EXACT_FIELDS = ("digest", "solves", "hits", "steps", "rejected_steps",
                "intervals", "segments")

# The workloads and metrics this benchmark defines, with their units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(message):
    print(message, file=sys.stderr, flush=True)


def die(message):
    log(f"run.py: {message}")
    sys.exit(1)


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no tpcool source tree at {ROOT}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PERF_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "tpcool_perf"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            die("build failed: " + " ".join(step))
    return build_dir / "tpcool_perf"


def host_steal_s():
    """CPU seconds the hypervisor gave to other guests on this machine's
    CPUs since boot (the steal column of /proc/stat); 0 where unknown."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_driver(binary, args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("TPCOOL_")}
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"driver timed out after {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"driver exited with {proc.returncode}")
    return json.loads(lines[-1])


def quantile(values, q):
    """Nearest-rank quantile (q in [0, 1]); 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values):
    return statistics.median(values) if values else 0.0


def binary_id(binary):
    return hashlib.sha256(Path(binary).read_bytes()).hexdigest()[:16]


def exact_ledger(binary, report, counters):
    """Compare exact counters against earlier runs of this binary on the
    same inputs (kept under .bench_out); returns the mismatches."""
    path = OUT_DIR / (f"exact-{binary_id(binary)}-{report['workload']}-"
                      f"{report['input_digest']}.json")
    known = json.loads(path.read_text()) if path.is_file() else {}
    mismatches = [f"{k}: {known[k]} then {v}" for k, v in counters.items()
                  if k in known and known[k] != v]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({**known, **counters}, sort_keys=True))
    tmp.replace(path)
    return mismatches


class Tally:
    """Operations attempted and failed, plus the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def ops(self, count, ok, why=""):
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(why)

    def check(self, ok, why):
        self.ops(1, ok, why)


def tally_runs(tally, runs):
    for run in runs:
        why = run["error"] or ", ".join(
            f"{c['name']} ({c['detail']})" for c in run["checks"] if not c["ok"])
        tally.ops(max(1, int(run["ops"])), run["ok"], why)
    first = runs[0]
    for field in EXACT_FIELDS:
        values = {run[field] for run in runs if run["ok"]}
        tally.check(len(values) <= 1, f"{field} differs between runs: {values}")
    return {field: first[field] for field in EXACT_FIELDS}


def end_to_end(report, tally):
    runs = report["runs"]
    tally.ops(int(report["probe_solves"]) or 1, not report["probe_error"],
              "coupling probe: " + report["probe_error"])
    wall = [r["wall_s"] for r in runs]
    cpu = [r["cpu_s"] for r in runs]
    for name, values in (("wall_s", wall), ("cpu_s", cpu)):
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        log(f"{name:<17} median {median(values):.6f}  quartiles "
            f"{q[0]:.6f} .. {q[2]:.6f}  ({len(values)} samples)")
    log(f"{'setup_s':<17} p10 {report['setup_p10_s']:.6f}  median "
        f"{report['setup_median_s']:.6f}  ({report['setup_count']:.0f} samples)")
    return {
        "wall_s": median(wall),
        "cpu_s": median(cpu),
        "setup_s": report["setup_p10_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "coupling_error_c": report["coupling_error_c"],
    }


def per_layer(report, tally, counters):
    baseline, run = report["runs"]
    trace_path = report["trace_file"]
    inspect = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "trace_inspect.py"),
         trace_path, "--verify"], stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    tally.check(inspect.returncode == 0,
                "trace_inspect --verify: " + inspect.stderr.strip())

    trace = attribute.load_trace(trace_path)
    spans = attribute.build_spans(trace)
    attribution = attribute.attribute(trace, spans)
    tally.check(attribution["trace.dropped_spans"] == 0, "trace dropped spans")
    trace_counters = trace["metrics"].get("counters", {})

    def named(name):
        return [s for s in spans if s.name == name]

    def durations_ms(name):
        return [s.dur / 1e3 for s in named(name)]

    cg = named("cg")
    cg_iterations = sum(s.args.get("iterations", 0) for s in cg)
    cg_cell_iterations = sum(
        s.args.get("n", 0) * s.args.get("iterations", 0) for s in cg)
    counters["cg.iterations"] = cg_iterations
    counters["cg.cell_iterations"] = cg_cell_iterations
    cg_ms = sum(s.dur for s in cg) / 1e3
    # Working thread time: the workers' chunk time plus the main thread's
    # run time less its waiting.  The pool's caller counter is left out: it
    # also absorbs nested serial-path jobs run on every thread.
    wall_ms = run["wall_s"] * 1e3
    busy_ms = (attribution["pool.worker_busy_ms"] + wall_ms
               - attribution["pool.wait_ms"])
    trials = run["steps"] + run["rejected_steps"]
    cg_in_segments = sum(1 for s in cg if s.within("transient.segment"))
    advance = run["advance_ms"] or durations_ms("fleet.interval")
    segment = durations_ms("transient.segment")
    # Latencies of layers only some workloads use: in the full report, not
    # in the metrics, so that no workload reports a constant zero time.
    report["latency_ms"] = {
        "datacenter.advance_ms.p50": median(advance),
        "datacenter.advance_ms.p99": quantile(advance, 0.99),
        "datacenter.observer_ms": run["observer_ms"],
        "transient.segment_ms.p50": median(segment),
        "transient.segment_ms.max": max(segment, default=0.0),
    }
    for name, value in report["latency_ms"].items():
        log(f"{name:<26} {value:.3f} ms")
    solves, hits = run["solves"], run["hits"]
    solve_spans = named("solve")
    steady = named("steady_solve")

    return {
        "datacenter.intervals": run["intervals"],
        "datacenter.advance_tail":
            quantile(advance, 0.99) / median(advance) if advance else 0.0,
        "datacenter.observer_share": run["observer_ms"] / wall_ms,
        "transient.segments": run["segments"],
        "transient.steps": run["steps"],
        "transient.rejected_steps": run["rejected_steps"],
        "transient.segment_tail":
            max(segment) / median(segment) if segment else 0.0,
        "transient.cg_per_trial": cg_in_segments / trials if trials else 0.0,
        "core.solves": solves,
        "core.cache_hits": hits,
        "core.cache_hit_ratio": hits / (hits + solves) if hits + solves else 0.0,
        "core.pipeline_constructions": run["pipeline_constructions"],
        "core.pipeline_reuses": run["pipeline_reuses"],
        "core.snapshot_save_ms": run["snapshot_save_ms"],
        "core.snapshot_bytes": run["snapshot_bytes"],
        "core.solve_ms.p50": median(durations_ms("solve")),
        "core.solve_self_ms": sum(s.self_us for s in solve_spans) / 1e3,
        "core.coupling_iterations": sum(
            s.args.get("coupling_iterations", 0) for s in solve_spans),
        "thermal.steady_solves": len(steady),
        "thermal.steady_ms.p50": median(durations_ms("steady_solve")),
        "thermal.steady_self_ms": sum(s.self_us for s in steady) / 1e3,
        "thermal.transient_steps": trace_counters.get(
            "thermal.transient_steps", 0),
        "cg.solves": len(cg),
        "cg.iterations": cg_iterations,
        "cg.cell_iterations": cg_cell_iterations,
        "cg.ms": cg_ms,
        "cg.ns_per_cell_iter":
            cg_ms * 1e6 / cg_cell_iterations if cg_cell_iterations else 0.0,
        "cg.busy_share": cg_ms / busy_ms if busy_ms else 0.0,
        "pool.jobs": trace_counters.get("pool.jobs", 0),
        "pool.chunks": trace_counters.get("pool.chunks", 0),
        "pool.busy_ms": busy_ms,
        "pool.utilization": busy_ms / (int(report["threads"]) * wall_ms),
        "pool.wait_ms": attribution["pool.wait_ms"],
        "trace.dropped_spans": attribution["trace.dropped_spans"],
        "trace.unattributed_frac": attribution["trace.unattributed_frac"],
        "trace.overhead": run["wall_s"] / baseline["wall_s"] - 1.0,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    OUT_DIR.mkdir(exist_ok=True)
    steal_start = host_steal_s()
    report = run_driver(binary, args)
    # Not a metric: it explains a slow run rather than measuring tpcool.
    report["host_steal_s"] = host_steal_s() - steal_start
    log(f"host steal during the run: {report['host_steal_s']:.2f} CPU-s")

    tally = Tally()
    counters = tally_runs(tally, report["runs"])
    if args.trace:
        values = per_layer(report, tally, counters)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(report, tally)
        units = END_TO_END_UNITS
    for mismatch in exact_ledger(binary, report, counters):
        tally.check(False, "exact counter changed between runs: " + mismatch)

    report["metrics"] = values
    report["problems"] = tally.problems
    (OUT_DIR / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    for problem in tally.problems:
        log(f"FAILED: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
