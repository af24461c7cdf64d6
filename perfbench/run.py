#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the library sources plus the ecs_perfbench program) into
.bench_build/perfbench, measures set-up time with a few short probe
processes, runs the workload, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.

    python3 perfbench/run.py --selftest         # wrapper transparency test
    python3 perfbench/run.py --update-digests   # re-pin digests.json
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ecs_perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ["fig2b_load05", "stream_overload", "fig2a_observed"]
# Set-up time is a few milliseconds of process start-up, so it is sampled
# by this many probe processes, and the median kept.
SETUP_PROBES = 10
DEADLINE_S = 170.0


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(target):
    """Configures once, then builds `target` (a no-op when up to date)."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any(os.path.exists(os.path.join(BUILD, f))
                   for f in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "--target", target,
                        "-j", jobs], stdout=sys.stderr, check=True)


def run_binary(args, timeout):
    """Runs ecs_perfbench and returns its last stdout line as JSON."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload, seed):
    """Process start to first timed world, for one probe process: raw, and
    at the reference host speed (scaled by the probe's gauge kernel, as
    events_per_s is)."""
    start = time.monotonic()  # CLOCK_MONOTONIC, like steady_clock
    out = run_binary(["--workload=" + workload, "--seed=%d" % seed,
                      "--setup-only"], timeout=60)
    raw = out["first_world_s"] - start
    return raw, raw * out["reference_gauge_s"] / out["gauge_s"]


def expected_digests(workload, seed):
    with open(DIGESTS) as f:
        pinned = json.load(f)
    if seed != pinned["seed"] or workload not in pinned["workloads"]:
        return []
    entry = pinned["workloads"][workload]
    return ["--expect-digest=" + entry["digest"],
            "--expect-world-digest=" + entry["world_digest"]]


def benchmark(workload, seed, seconds, trace):
    build("ecs_perfbench")
    deadline = time.monotonic() + DEADLINE_S  # the first build may take long
    args = ["--workload=" + workload, "--seed=%d" % seed,
            "--seconds=%d" % seconds, "--trace=%d" % trace]
    args += expected_digests(workload, seed)
    if trace:
        args.append("--spans-out=" + os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (workload, seed)))
    setup = []
    if not trace:
        setup = [setup_seconds(workload, seed) for _ in range(SETUP_PROBES)]
        log("set-up %.4g ms raw, %.4g ms at the reference speed (medians)" %
            (1e3 * statistics.median(s[0] for s in setup),
             1e3 * statistics.median(s[1] for s in setup)))
    out = run_binary(args, timeout=max(1.0, deadline - time.monotonic()))
    metrics = out["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(s[1] for s in setup),
                              "unit": "s"}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    correct = out["correct"] and set(metrics) == wanted
    if set(metrics) != wanted:
        log("metric names differ from BENCHMARK.json: %s" %
            sorted(set(metrics) ^ wanted))
    return {"correct": correct, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def update_digests(seed):
    build("ecs_perfbench")
    pinned = {"seed": seed, "workloads": {}}
    for workload in WORKLOADS:
        out = run_binary(["--workload=" + workload, "--seed=%d" % seed,
                          "--seconds=0", "--trace=1"], timeout=DEADLINE_S)
        if not out["correct"]:
            raise SystemExit("perfbench: %s failed; digests not updated"
                             % workload)
        pinned["workloads"][workload] = {"digest": out["digest"],
                                         "world_digest": out["world_digest"]}
    with open(DIGESTS, "w") as f:
        json.dump(pinned, f, indent=2)
        f.write("\n")
    log("pinned digests for seed %d in %s" % (seed, DIGESTS))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if args.selftest:
        build("perfbench_tests")
        subprocess.run([os.path.join(BUILD, "perfbench_tests")], check=True)
    elif args.update_digests:
        update_digests(args.seed)
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        result = benchmark(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as error:
        log("error: %s" % error)
        sys.exit(1)
