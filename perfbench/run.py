#!/usr/bin/env python3
"""Flood benchmark: builds perfbench/ and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve_point --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the benchmark (CMake, Release, into $CARGO_TARGET_DIR
or .bench_build), runs the workload, and prints the run's report followed
by one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics. The exit status is 0 only when the run
finished, every answer was correct and every metric was measured.

--smoke runs every workload at a tiny scale in both modes and checks that
each metric BENCHMARK.json names is printed with its unit.

The read p90 limit of an open-loop workload's rate ladder is part of its
"why" in BENCHMARK.json ("p90 limit <N> us") and is passed on from there.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = "BENCHMARK.json"
# Each run must finish within 180 s; the build (first run only) is extra.
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 0.01
SMOKE_SECONDS = 2
TAIL_LIMIT_RE = re.compile(r"p90 limit (\d+) us")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(BENCHMARK_JSON) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {BENCHMARK_JSON}: {e}")


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "flood_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "flood_perfbench")


def tail_limits(spec):
    """Read p90 limit (us), or None, by workload name."""
    limits = {}
    for w in spec["workloads"]:
        m = TAIL_LIMIT_RE.search(w["why"])
        limits[w["name"]] = int(m.group(1)) if m else None
    return limits


def run_binary(binary, workload, seed, seconds, trace, scale, spec, echo):
    """Runs one workload; returns (exit status, parsed @result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", str(scale)]
    limit = tail_limits(spec)[workload]
    if limit:
        cmd += ["--tail-limit-us", str(limit)]
    work = os.path.join(os.path.dirname(binary), "run")
    cmd += ["--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    result = None
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    for line in out.splitlines():
        if line.startswith("@result "):
            result = json.loads(line[len("@result "):])
        elif echo:
            print(line)
    return proc.returncode, result


def select_metrics(result, wanted):
    """The metrics BENCHMARK.json names, in its order, with unit checks."""
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            return None, f"metric {m['name']} missing"
        if got["unit"] != m["unit"]:
            return None, f"metric {m['name']} has unit {got['unit']}, not {m['unit']}"
        metrics[m["name"]] = got
    return metrics, None


def smoke(spec, binary):
    bad = 0
    for name in tail_limits(spec):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            t0 = time.monotonic()
            status, result = run_binary(binary, name, 1, SMOKE_SECONDS,
                                        trace, SMOKE_SCALE, spec, echo=False)
            err = None
            if result is None:
                err = f"exit status {status}, no result"
            else:
                metrics, err = select_metrics(result, spec[key])
                if err is None and (status != 0 or not result["correct"]):
                    err = f"exit status {status}, correct={result['correct']}"
            print(f"smoke {name:16s} trace={trace} "
                  f"{time.monotonic() - t0:5.1f} s: "
                  f"{'ok, ' + str(len(spec[key])) + ' metrics with units' if err is None else 'FAILED: ' + err}")
            bad += err is not None
    if bad:
        fail(f"smoke: {bad} run(s) failed")
    print("smoke: every workload printed every metric of BENCHMARK.json with its unit")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    binary = build()
    if args.smoke:
        smoke(spec, binary)
        return
    names = list(tail_limits(spec))
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    status, result = run_binary(binary, args.workload, args.seed, seconds,
                                args.trace, 1.0, spec, echo=True)
    if result is None:
        fail(f"{args.workload}: exit status {status}, no result")
    metrics, err = select_metrics(
        result, spec["per_layer" if args.trace else "end_to_end"])
    if err is not None:
        fail(f"{args.workload}: {err}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if status == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
