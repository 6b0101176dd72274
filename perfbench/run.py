#!/usr/bin/env python3
"""End-to-end benchmark of the IDDE pipeline: build, run one workload, check.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
measured run of the workload. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report (README.md). With --trace 1 the Chrome trace of the benchmark's
spans is checked with tools/obs/validate_trace.py before the result is
printed. Exits nonzero, printing no result, when the build, the run or a
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep-paper", "metro-pipeline", "replay-chaos", "serve-city")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The longest op (metro-pipeline, ~5 s) may overrun the time budget once.
RUN_SLACK_S = 150


def fail(message: str, code: int = 1) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir(root: Path) -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    return target / "perfbench"


def build(root: Path, out: Path) -> Path:
    """Configures (once) and builds the harness; returns the binary path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"{root / 'src'} is missing: run from a full checkout", 2)
    configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for attempt in range(2):
        if not (out / "CMakeCache.txt").is_file():
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed", 2)
        done = subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                              stdout=sys.stderr)
        if done.returncode == 0:
            return out / "idde_perfbench"
        if attempt == 0:
            # A stale tree (say, configured for another checkout path):
            # start over once.
            shutil.rmtree(out, ignore_errors=True)
    fail("build failed", 2)
    raise AssertionError("unreachable")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="smaller sizes, one round (the tests use it)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be >= 0", 2)

    root = Path(__file__).resolve().parent.parent
    out = build_dir(root)
    binary = build(root, out)

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.short:
        command.append("--short")
    trace_path = out / f"trace-{args.workload}.json"
    telemetry_path = out / f"telemetry-{args.workload}.json"
    if args.trace:
        command += ["--trace-out", str(trace_path),
                    "--telemetry-out", str(telemetry_path)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"harness exited with {done.returncode}")

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        fail("the harness printed no result line")
    if (not isinstance(result, dict) or set(result) != RESULT_KEYS
            or result["attempted"] < 1):
        fail(f"malformed result line: {lines[-1]}")

    if args.trace:
        validator = root / "tools" / "obs" / "validate_trace.py"
        if validator.is_file():
            checked = subprocess.run(
                [sys.executable, str(validator), str(trace_path)],
                stdout=sys.stderr)
            if checked.returncode != 0:
                fail(f"{trace_path} is not a valid Chrome trace")
        telemetry = json.loads(telemetry_path.read_text())
        if not telemetry.get("counters") or not telemetry.get("spans"):
            fail(f"{telemetry_path}: the telemetry scrape is empty")

    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
