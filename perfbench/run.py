#!/usr/bin/env python3
"""entk-cpp benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload bag_wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt into .bench_build/perfbench (toolkit sources
from src/, RelWithDebInfo); later calls only rebuild what changed.

Each repetition is a fresh entk_perfbench process, started again and
again until --seconds have passed. The harness prints raw measurements;
this script checks the outputs, pools the samples and prints a summary
table followed, on the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (untraced repetitions only). With
--trace 1 the first half of the time runs untraced repetitions and one
traced repetition follows; the metrics are the per-layer ones. See
perfbench/README.md for what each workload and metric means.
"""
import argparse
import array
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_run"
BINARY = BUILD / "entk_perfbench"
SPAN_TEST = BUILD / "perfbench_span_test"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("bag_wide", "chain_ckpt", "serve_open")
BATCH = ("bag_wide", "chain_ckpt")
FAIRNESS_BOUND = 1.5      # the serve_load gate's bound
REP_TIMEOUT_S = 120
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("us_per_unit", "us"),
    ("cpu_us_per_unit", "us"),
    ("peak_rss_mb", "MB"),
    ("dispatch_p50_ms", "ms"),
    ("dispatch_p99_ms", "ms"),
    ("done_p50_ms", "ms"),
    ("done_p99_ms", "ms"),
)

PER_LAYER = (
    ("core.load_s", "s"),
    ("core.allocate_s", "s"),
    ("core.graph.advance_s", "s"),
    ("core.graph.advance_calls", "count"),
    ("core.submit.flush_s", "s"),
    ("core.submit.units_per_flush", "units"),
    ("core.drive.self_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.pending_peak", "count"),
    ("sim.pool_slots", "count"),
    ("pilot.sched.calls", "count"),
    ("pilot.sched.busy_s", "s"),
    ("pilot.sched.picks_per_call", "ratio"),
    ("pilot.settled", "count"),
    ("pilot.waiting_peak", "count"),
    ("ckpt.snapshots", "count"),
    ("ckpt.capture_s", "s"),
    ("ckpt.bytes_written", "bytes"),
    ("ckpt.bytes_per_unit", "bytes"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.status_us_p50", "us"),
    ("serve.queue_peak", "count"),
    ("serve.active_peak", "count"),
    ("serve.drive_cpu_s", "s"),
    ("serve.client_cpu_s", "s"),
    ("serve.fairness_dispersion", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("bench.coverage", "ratio"),
    ("bench.gen_lag_p99_ms", "ms"),
)


# ---------------------------------------------------------------- statistics

def rank_index(n, pct):
    """Nearest-rank index of the pct-th percentile in n sorted values
    (the epsilon keeps 99.9% of 10000 at rank 9990, not 9991)."""
    return min(n - 1, max(0, math.ceil(pct * n / 100.0 - 1e-9) - 1))


def beyond(n, pct):
    """Samples strictly above the pct-th percentile's rank."""
    return n - 1 - rank_index(n, pct)


def percentile(sorted_values, pct):
    return sorted_values[rank_index(len(sorted_values), pct)]


def tail_percentile(n):
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it, or None when n is too small for any."""
    for pct in TAIL_LADDER:
        if n > 0 and beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def summarize(values):
    """(count, median, tail pct or None, tail value or None)."""
    ordered = sorted(values)
    tail = tail_percentile(len(ordered))
    return (len(ordered), statistics.median(ordered), tail,
            None if tail is None else percentile(ordered, tail))


def dispersion(tenants):
    """max/min of contended dispatched units divided by tenant weight."""
    shares = [t["contended"] / t["weight"] for t in tenants.values()]
    if not shares or min(shares) <= 0:
        return float("inf")
    return max(shares) / min(shares)


# ---------------------------------------------------------------- build/run

def build(targets):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target"]
                 + list(targets))
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def read_samples(path):
    values = array.array("d")
    if path.exists():
        values.frombytes(path.read_bytes())
    return values


def run_rep(workload, seed, index, trace_path=None):
    """Runs one repetition; returns (record, problem)."""
    rep_dir = RUNS / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--rep-dir", str(rep_dir)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    out_path = rep_dir / "stdout.txt"
    err_path = rep_dir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        child = subprocess.Popen(cmd, stdout=out, stderr=err)
        deadline = time.monotonic() + REP_TIMEOUT_S
        status, usage = 0, None
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                child.kill()
                _, status, usage = os.wait4(child.pid, 0)
                break
            time.sleep(0.01)
    child.returncode = os.waitstatus_to_exitcode(status)
    problem = None
    record = None
    lines = out_path.read_text().splitlines()
    if child.returncode != 0 or not lines:
        tail = err_path.read_text().strip().splitlines()[-3:]
        problem = (f"{workload} repetition {index} exited with "
                   f"{child.returncode}: {' | '.join(tail)}")
    else:
        record = json.loads(lines[-1])
        record["rss_mb"] = usage.ru_maxrss / 1024.0
        for name in ("dispatch_ms", "done_ms", "lag_ms", "submit_us",
                     "status_us"):
            record[name] = read_samples(rep_dir / f"{name}.f64")
    shutil.rmtree(rep_dir, ignore_errors=True)
    return record, problem


# ---------------------------------------------------------------- checks

def check_rep(workload, rep, seed, pinned):
    """Output checks of one repetition; returns (failures, problems)."""
    problems = []
    failures = 0
    if workload in BATCH:
        expected = rep["expected_units"]
        failures += rep["units_failed"] + rep["units_cancelled"]
        failures += max(0, expected - rep["units_done"])
        if not rep["outcome_ok"]:
            problems.append(f"outcome {rep['outcome']}")
        if rep["units"] != expected or rep["units_done"] != expected:
            problems.append(f"{rep['units_done']}/{expected} units done")
        want = pinned.get(workload, {}).get(str(seed))
        if want is not None and rep["digest"] != want:
            problems.append(f"schedule digest {rep['digest']} != pinned "
                            f"{want} for seed {seed}")
        if workload == "chain_ckpt":
            if rep["snapshots"] < 1:
                problems.append("no snapshot written")
            if not rep["snapshot_ok"]:
                problems.append("newest snapshot: " + rep["snapshot_note"])
    else:
        failures += (rep["rejected"] + rep["refused"] + rep["not_done"]
                     + rep["wrong_units"] + rep["lost"])
        for key in ("rejected", "refused", "not_done", "wrong_units",
                    "lost"):
            if rep[key]:
                problems.append(f"{rep[key]} workloads {key}")
        if rep["accepted"] != rep["submissions"]:
            problems.append(f"accepted {rep['accepted']} of "
                            f"{rep['submissions']} submissions")
        fairness = dispersion(rep["tenants"])
        if not fairness <= FAIRNESS_BOUND:
            problems.append(f"fairness dispersion {fairness:.3f} above "
                            f"{FAIRNESS_BOUND}")
    if not rep["traced"]:
        for kind in ("dispatch_ms", "done_ms"):
            if beyond(len(rep[kind]), 99.0) < MIN_BEYOND:
                problems.append(f"only {len(rep[kind])} {kind} samples: "
                                "too few for a p99")
    return failures, problems


# ---------------------------------------------------------------- metrics

def end_to_end(reps):
    """Each metric is the median over repetitions of its value in each
    repetition. Latency percentiles are taken within a repetition first,
    so one slow repetition cannot set the tail. Also returns the pooled
    latency samples the summary table describes."""
    per_rep = {
        "setup_s": [rep["setup_s"] for rep in reps],
        "us_per_unit": [1e6 * rep["run_s"] / rep["units_done"]
                        for rep in reps],
        "cpu_us_per_unit": [1e6 * rep["cpu_s"] / rep["units_done"]
                            for rep in reps],
        "peak_rss_mb": [rep["rss_mb"] for rep in reps],
    }
    pooled = {}
    for kind in ("dispatch", "done"):
        series = [sorted(rep[f"{kind}_ms"]) for rep in reps]
        for pct in (50, 99):
            per_rep[f"{kind}_p{pct}_ms"] = [percentile(s, pct)
                                            for s in series]
        pooled[kind] = sorted(v for s in series for v in s)
    values = {name: statistics.median(v) for name, v in per_rep.items()}
    return values, per_rep, pooled


def per_layer(workload, untraced, traced):
    layers = {name: 0.0 for name, _ in PER_LAYER}
    spans = traced.get("spans", {})
    if workload in BATCH:
        layers.update(traced["layers"])
    else:
        submit = sorted(traced["submit_us"])
        status = sorted(traced["status_us"])
        lag = sorted(traced["lag_ms"])
        setup = spans.get("core.allocate", {"self_s": 0.0, "calls": 1})
        layers.update({
            "core.allocate_s": setup["self_s"] / max(1, setup["calls"]),
            "serve.submit_us_p50": percentile(submit, 50.0),
            "serve.submit_us_p99": percentile(submit, 99.0),
            "serve.status_us_p50": percentile(status, 50.0),
            "serve.queue_peak": traced["queue_peak"],
            "serve.active_peak": traced["active_peak"],
            "serve.drive_cpu_s": traced["drive_cpu_s"],
            "serve.client_cpu_s": traced["client_cpu_s"],
            "serve.fairness_dispersion": dispersion(traced["tenants"]),
            "bench.coverage": traced["coverage"],
            "bench.gen_lag_p99_ms": percentile(lag, 99.0),
        })
    base = statistics.median(rep["cpu_s"] / rep["units_done"]
                             for rep in untraced)
    layers["obs.trace_overhead"] = (
        traced["cpu_s"] / traced["units_done"] / base - 1.0)
    return layers


# ---------------------------------------------------------------- output

def fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(rows):
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


def print_end_to_end(values, per_rep, pooled):
    """Per metric: the reported value (median over repetitions), then
    the samples behind it with their median and tail."""
    rows = [("metric", "unit", "value", "samples", "median", "tail")]
    for name, unit in END_TO_END:
        kind = name.split("_p")[0]
        samples = pooled[kind] if kind in pooled else per_rep[name]
        count, median, tail, tail_value = summarize(samples)
        tail_text = ("n/a (< %d samples)" % (2 * MIN_BEYOND)
                     if tail is None else f"p{tail:g}={tail_value:.6g}")
        rows.append((name, unit, fmt(values[name]), str(count),
                     fmt(median), tail_text))
    print_table(rows)


def print_spans(spans):
    rows = [("span", "calls", "total_s", "self_s")]
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        rows.append((name, str(row["calls"]), fmt(row["total_s"]),
                     fmt(row["self_s"])))
    print_table(rows)


# ---------------------------------------------------------------- main

def measure(args):
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    RUNS.mkdir(exist_ok=True)
    start = time.monotonic()
    untraced_budget = args.seconds / 2.0 if args.trace else args.seconds
    reps, problems = [], []
    failed = 0
    index = 0
    # Start another repetition only while it is expected to end within
    # the budget, so a run lasts about --seconds.
    while True:
        elapsed = time.monotonic() - start
        if reps and elapsed * (len(reps) + 1) / len(reps) > untraced_budget:
            break
        rep, problem = run_rep(args.workload, args.seed, index)
        index += 1
        if problem is not None:
            problems.append(problem)
            failed += 1
            break
        reps.append(rep)
    traced = None
    # One file per workload: the next traced run replaces it.
    trace_file = RUNS / f"trace-{args.workload}.json"
    if args.trace and not problems:
        traced, problem = run_rep(args.workload, args.seed, index,
                                  trace_path=trace_file)
        if problem is not None:
            problems.append(problem)
            failed += 1

    checked = reps + ([traced] if traced is not None else [])
    for number, rep in enumerate(checked):
        rep_failures, rep_problems = check_rep(args.workload, rep,
                                               args.seed, pinned)
        failed += rep_failures + len(rep_problems)
        problems += [f"repetition {number}: {p}" for p in rep_problems]
    if args.workload in BATCH and checked:
        digests = sorted({rep["digest"] for rep in checked})
        if len(digests) != 1:
            failed += 1
            problems.append("schedule digests differ between repetitions"
                            " (traced included): " + ", ".join(digests))
    if args.workload == "serve_open" and checked:
        spread = sorted(dispersion(rep["tenants"]) for rep in checked)
        print(f"fairness: weight-normalised contended dispersion per "
              f"repetition {spread[0]:.3f} to {spread[-1]:.3f} "
              f"(bound {FAIRNESS_BOUND}, checked in each)")

    if args.workload in BATCH:
        attempted = sum(rep["expected_units"] for rep in checked)
    else:
        attempted = sum(rep["submissions"] for rep in checked)
    attempted = max(1, attempted)

    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} "
          f"untraced repetitions in {time.monotonic() - start:.1f} s")
    if args.workload == "serve_open" and checked:
        first = checked[0]
        print(f"open loop: {first['submissions']} SUBMITs per repetition "
              f"at {first['rate']:g}/s in waves of 8, STATUS poll period "
              f"{first['poll_ms']:g} ms, 2 application threads")
    if args.workload in BATCH and reps:
        print(f"schedule digest {reps[0]['digest']}")
    metrics = {}
    if reps and not problems:
        if args.trace:
            values = per_layer(args.workload, reps, traced)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in PER_LAYER}
            print_table([("per-layer metric", "unit", "value")] +
                        [(name, unit, fmt(values[name]))
                         for name, unit in PER_LAYER])
            print_spans(traced.get("spans", {}))
            print(f"chrome trace: {trace_file}")
        else:
            values, per_rep, pooled = end_to_end(reps)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            print_end_to_end(values, per_rep, pooled)
            print(f"failed_frac {failed / attempted:.6g} "
                  f"({failed} of {attempted})")
    for problem in problems:
        print("CHECK FAILED: " + problem)
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def self_test():
    if not build(["perfbench_span_test"]):
        return 2
    code = subprocess.run([str(SPAN_TEST)]).returncode
    tests = subprocess.run([sys.executable, "-m", "unittest", "discover",
                            "-s", str(HERE / "tests"), "-v"])
    return code or tests.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["entk_perfbench"]):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
