#!/usr/bin/env python3
"""Repository benchmark: end-to-end times of three co-design workloads.

Run from the repository root:

    python3 perfbench/run.py --workload validate --seed 1 --seconds 30 --trace 0

Builds the pipeline libraries and perfbench/driver.cpp (Release) into
$CARGO_TARGET_DIR (default .bench_build) on first use, runs the workload's
set-up several times in fresh processes, then measures closed-loop passes in
one fresh process and prints a JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced and traced
passes side by side and reports the per-layer metrics, after a table of each
layer's share of self time. See perfbench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("validate", "groundtruth", "explore")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "quality_mean_pct": "%",
    "quality_min_pct": "%",
}
# Set-up repetitions per run (each in a fresh process). explore's set-up
# builds its artifact store cold (seconds); the others start the program and
# profile the library builtins (milliseconds), so they repeat more.
SETUP_REPS = {"validate": 31, "groundtruth": 31, "explore": 3}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        die("no pipeline sources next to perfbench/ (expected ../src)")
    # Compiler and driver temporaries stay inside the build directory.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp.resolve())
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                die(f"build timed out (see {log_path})")
            if r.returncode != 0:
                die(f"build failed (see {log_path})")
    driver = build_dir / "perfbench_driver"
    if not driver.is_file():
        die("build produced no perfbench_driver")
    return driver


def run_driver(driver, args):
    """Runs the driver to completion; returns (wall seconds, stdout lines)."""
    t0 = time.perf_counter()
    try:
        r = subprocess.run([str(driver)] + args, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"driver timed out: {' '.join(args)}", 1)
    wall = time.perf_counter() - t0
    if r.returncode != 0:
        die(f"driver failed ({r.returncode}): {' '.join(args)}", 1)
    return wall, r.stdout.strip().splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    driver = build(build_dir)
    work = build_dir / "work" / opts.workload
    common = ["--workload", opts.workload, "--seed", str(opts.seed), "--work", str(work)]

    # Set-up: the time from a fresh process's start until it is ready to
    # measure, repeated; the median is reported. The last repetition leaves
    # the state the measured passes read (explore's warm store).
    setup = []
    for _ in range(SETUP_REPS[opts.workload] if opts.trace == 0 else 1):
        wall, _ = run_driver(driver, common + ["--phase", "setup"])
        setup.append(wall)

    _wall, lines = run_driver(driver, common + [
        "--phase", "measure", "--seconds", str(opts.seconds), "--trace", str(opts.trace)])
    if not lines:
        die("driver printed no result", 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if opts.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        missing = [m for m in END_TO_END if m not in metrics]
        if missing:
            die(f"driver did not report {missing}", 1)
        metrics = {m: metrics[m] for m in END_TO_END}
    print(json.dumps({
        "correct": bool(result["correct"]) and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
