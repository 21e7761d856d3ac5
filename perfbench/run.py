#!/usr/bin/env python3
"""Fleet benchmark: builds fleetbench from source, runs one workload, checks
its outputs and prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-golden

Run it from the root of the repository. Human-readable lines go first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (README.md lists both and the workloads).
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
WORKLOADS = ("burst-uncoupled", "day-ab-cdn", "telemetry-ckpt")
MEASURE_THREADS = 2
MIN_STEPS = 3
PROCESS_TIMEOUT_S = 120
BUILD_JOBS = "2"


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(target):
    """Configures once, then builds `target` (a no-op when up to date)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "--target", target,
                        "-j", BUILD_JOBS], check=True, stdout=sys.stderr)
    return out / target


def fleetbench(exe, workload, seed, threads, trace=0):
    """One fleetbench process: one iteration of `workload`."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--threads", str(threads), "--trace", str(trace), "--work-dir", str(work)]
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_for(exe, args):
    """Runs processes for about args.seconds, at least MIN_STEPS steps. A step
    is one untraced process, or with --trace 1 an untraced and a traced one,
    so tracing overhead is measured on the same machine state."""
    runs = []
    start = time.monotonic()
    steps = 0
    while True:
        runs.append(fleetbench(exe, args.workload, args.seed, MEASURE_THREADS))
        if args.trace:
            runs.append(fleetbench(exe, args.workload, args.seed, MEASURE_THREADS, 1))
        steps += 1
        spent = time.monotonic() - start
        if steps >= MIN_STEPS and spent + spent / steps > args.seconds:
            return runs


def check_outputs(reference, golden, runs):
    """Returns (failed run count, messages). A run fails when it threw or its
    output digests differ from the 1-thread reference run; the reference
    itself fails when it threw or misses the golden digests."""
    failed = 0
    notes = []
    ref = reference["iteration"]
    if "error" in ref:
        notes.append(f"reference run threw: {ref['error']}")
        return 1 + len(runs), notes
    if golden is not None and ref["digests"] != golden:
        failed += 1
        notes.append(f"reference digests {ref['digests']} differ from golden {golden}")
    for i, run in enumerate(runs):
        it = run["iteration"]
        if "error" in it:
            failed += 1
            notes.append(f"run {i} threw: {it['error']}")
        elif it["digests"] != ref["digests"]:
            failed += 1
            kind = "traced" if "traced" in it else "untraced"
            notes.append(f"run {i} ({kind}, {MEASURE_THREADS} threads) digests "
                         f"{it['digests']} differ from the 1-thread reference {ref['digests']}")
    return failed, notes


def end_to_end(runs):
    ok = [r for r in runs if "error" not in r["iteration"]]
    its = [r["iteration"] for r in ok]
    if not its:
        return {}
    return {
        "wall_s": ([it["wall_s"] for it in its], "s"),
        "decisions_per_s": ([it["decisions"] / it["run_s"] for it in its], "1/s"),
        "sessions_per_s": ([it["sessions"] / it["run_s"] for it in its], "1/s"),
        "setup_s": ([x for r in ok for x in r["setup_samples_s"]], "s"),
        "peak_rss_mb": ([r["peak_rss_kb"] / 1024.0 for r in ok], "MB"),
    }


def per_layer(runs):
    its = [r["iteration"] for r in runs if "error" not in r["iteration"]]
    plain = [it for it in its if "traced" not in it]
    traced = [it for it in its if "traced" in it]
    if not plain or not traced:
        return {}

    def t(key):
        return [it["traced"][key] for it in traced]

    def top(key):
        return [it[key] for it in traced]

    self_s = [it["run_cpu_s"] - (it["traced"]["decide_s"] + it["traced"]["feedback_s"]
                                 + it["traced"]["estimate_s"] + it["traced"]["trace_busy_s"])
              for it in traced]
    overhead = statistics.median(top("wall_s")) - statistics.median([it["wall_s"] for it in plain])
    return {
        "abr.decide.calls": (t("decide_calls"), "count"),
        "abr.decide.busy_s": (t("decide_s"), "s"),
        "abr.decide.ns_p50": (t("decide_ns_p50"), "ns"),
        "abr.decide.ns_p99": (t("decide_ns_p99"), "ns"),
        "abr.feedback.busy_s": (t("feedback_s"), "s"),
        "net.estimate.calls": (t("estimate_calls"), "count"),
        "net.estimate.busy_s": (t("estimate_s"), "s"),
        "net.tracegen_s": (t("tracegen_s"), "s"),
        "video.catalog_s": (t("catalog_s"), "s"),
        "fleet.arrivals_s": (t("arrivals_s"), "s"),
        "fleet.run_s": (top("run_s"), "s"),
        "fleet.run.self_s": (self_s, "s"),
        "fleet.engine.events": (top("engine_events"), "count"),
        "fleet.engine.peak_in_flight": (top("engine_peak_in_flight"), "count"),
        "fleet.engine.max_heap": (top("engine_max_heap"), "count"),
        "fleet.engine.peak_resident_records": (top("engine_peak_resident_records"), "count"),
        "fleet.cache.hit_ratio": (top("cache_hit_ratio"), "ratio"),
        "fleet.cdn.upstream_fetch_ratio": (top("upstream_fetch_ratio"), "ratio"),
        "obs.trace.events": (top("trace_events"), "count"),
        "obs.trace.bytes": (top("trace_bytes"), "bytes"),
        "obs.trace.busy_s": (t("trace_busy_s"), "s"),
        "obs.metrics.write_s": (top("metrics_write_s"), "s"),
        "checkpoint.bytes": (t("checkpoint_bytes"), "bytes"),
        "checkpoint.load_s": (t("checkpoint_load_s"), "s"),
        "checkpoint.save_s": (t("checkpoint_save_s"), "s"),
        "metrics.report.write_s": (top("report_write_s"), "s"),
        "metrics.report.bytes": (top("report_bytes"), "bytes"),
        "exp.analyze_s": (top("analyze_s"), "s"),
        "bench.trace_overhead_s": ([overhead], "s"),
    }


def measure(args):
    exe = build("fleetbench")
    golden_all = json.loads(GOLDEN.read_text())
    golden = (golden_all["digests"][args.workload]
              if args.seed == golden_all["seed"] else None)
    reference = fleetbench(exe, args.workload, args.seed, 1)
    runs = run_for(exe, args)
    failed, notes = check_outputs(reference, golden, runs)
    attempted = 1 + len(runs)
    samples = per_layer(runs) if args.trace else end_to_end(runs)
    if not samples:
        raise RuntimeError("no iteration completed: " + "; ".join(notes))

    host = runs[0]
    print(f"workload {args.workload} | seed {args.seed} | trace {args.trace} | "
          f"{host['threads']} worker threads on {host['cores']} cores | "
          f"{host['compiler']} | {host['build_type']}")
    print(f"output check: {attempted - failed}/{attempted} runs match the 1-thread "
          f"reference{' and the golden digests' if golden is not None else ''}; "
          f"check_fail_frac {failed / attempted:.6g}")
    for note in notes:
        print(f"  FAIL {note}")
    print(f"{'metric':36} {'median':>14} {'unit':>6} {'samples':>7} {'min':>14} {'max':>14}")
    metrics = {}
    for name, (xs, unit) in samples.items():
        value = statistics.median(xs)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:36} {value:14.6g} {unit:>6} {len(xs):7d} {min(xs):14.6g} {max(xs):14.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def write_golden():
    exe = build("fleetbench")
    seed = json.loads(GOLDEN.read_text())["seed"] if GOLDEN.is_file() else 1
    digests = {}
    for w in WORKLOADS:
        ref = fleetbench(exe, w, seed, 1)["iteration"]
        if "error" in ref:
            raise RuntimeError(f"{w}: {ref['error']}")
        digests[w] = ref["digests"]
    GOLDEN.write_text(json.dumps({"seed": seed, "digests": digests}, indent=2) + "\n")
    print(f"wrote {GOLDEN.name} for seed {seed}")


def self_test():
    exe = build("fleetbench_selftest")
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    return subprocess.run([str(exe), str(work)], timeout=600).returncode


def main():
    p = argparse.ArgumentParser(description="Fleet benchmark (see README.md).")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.write_golden:
            write_golden()
            return 0
        if args.workload is None or args.seed is None or args.seed < 0 or args.seconds < 1:
            p.error("--workload, --seed >= 0 and --seconds >= 1 are required")
        measure(args)
        return 0
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
