#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the postal-model library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (perfbench/RATIONALE.md says why each exists):
    bcast_sim     one BCAST on the sharded ParMachine plus validation (`simulate`)
    serve_exec    job replays through BroadcastService with the fault-injecting
                  exec tier (`serve`)
    serve_plan    plan-only job replays: oracle and Section 4 registry (`serve`)
    log_failover  replicated-log runs with a leader crash, a reconfiguration
                  and link loss (`log`)

The first call builds the library and the worker (perfbench/cpp) from source
into .bench_build/ at the root of the checkout. Every workload runs in its
own worker processes. With --trace 0 the script prints the end-to-end
metrics; with --trace 1 a traced worker prints the per-layer metrics and
writes its spans under .bench_build/spans/. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(BUILD_DIR, "perfbench_worker")

# setup_s is the median over this many worker processes per run: the
# measuring one plus set-up-only ones.
SETUP_SAMPLES = 3
# A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the worker; a no-op when up to date."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, \
            open(os.path.join(BUILD_DIR, "build.log"), "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(cache):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT).returncode:
                # Leave no half-configured cache for the next call to trust.
                if os.path.exists(cache):
                    os.remove(cache)
                raise BenchError("configure failed (see .bench_build/build.log)")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_worker",
                       "-j", jobs]
        if subprocess.run(compile_cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
            raise BenchError("build failed (see .bench_build/build.log)")


def run_worker(args):
    """Runs one worker process; returns (spawn time, its JSON result)."""
    spawn = time.monotonic()
    proc = subprocess.Popen([WORKER] + args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out: " + " ".join(args))
    if proc.returncode != 0:
        raise BenchError("worker exited with %d: %s" % (proc.returncode, " ".join(args)))
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing: " + " ".join(args))
    for line in lines[:-1]:
        print(line)
    return spawn, json.loads(lines[-1])


def metric(spec, value):
    return {"value": value, "unit": spec["unit"]}


def end_to_end(config, workload, seed, seconds):
    common = ["--workload", workload, "--seed", str(seed)]
    spawn, main = run_worker(common + ["--seconds", str(seconds), "--mode", "run"])
    results = [(spawn, main)]
    for _ in range(SETUP_SAMPLES - 1):
        results.append(run_worker(common + ["--mode", "setup"]))
    # Set-up time from process spawn to the first timed op, scaled to the
    # nominal host speed the worker calibrated right after its set-up.
    raw_setups = [r["first_op_mono_s"] - spawn for spawn, r in results]
    setups = [t * r["setup_speed"] for t, (_, r) in zip(raw_setups, results)]
    values = {
        "ops_per_s": main["ops_per_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    specs = {m["name"]: m for m in config["end_to_end"]}
    if set(specs) != set(values):
        raise BenchError("end-to-end metrics differ from BENCHMARK.json")
    print("units=%d ops_per_s_raw=%.6g host_speed=%.4f" %
          (main["units"], main["ops_per_s_raw"], main["host_speed"]))
    print("setup_s samples raw: " + " ".join("%.4f" % t for t in raw_setups) +
          " scaled: " + " ".join("%.4f" % t for t in setups))
    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    return attempted, failed, {k: metric(specs[k], v) for k, v in values.items()}


def per_layer(config, workload, seed, seconds):
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.json" % (workload, seed))
    _, traced = run_worker(["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--mode", "trace",
                            "--spans", spans])
    specs = {m["name"]: m for m in config["per_layer"]}
    unknown = set(traced["layers"]) - set(specs)
    if unknown:
        raise BenchError("per-layer metrics not in BENCHMARK.json: " +
                         ", ".join(sorted(unknown)))
    print("spans written to " + os.path.relpath(spans, ROOT))
    # A layer the workload never calls reads 0.
    return traced["attempted"], traced["failed"], {
        name: metric(spec, traced["layers"].get(name, 0.0))
        for name, spec in specs.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            config = json.load(f)
        if args.workload not in [w["name"] for w in config["workloads"]]:
            raise BenchError("unknown workload " + args.workload)
        if args.seed < 0 or args.seconds <= 0:
            raise BenchError("--seed must be >= 0 and --seconds > 0")
        build()
        print("workload=%s seed=%d seconds=%g trace=%d" %
              (args.workload, args.seed, args.seconds, args.trace))
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics = measure(config, args.workload, args.seed,
                                             args.seconds)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print("%-34s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
