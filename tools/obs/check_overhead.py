#!/usr/bin/env python3
"""Gates the telemetry layer's disabled-path overhead using perf_game runs.

Input: two sets of BENCH_game.json files from the same machine —
`--baseline` from an IDDE_OBS=0 build (instrumentation compiled out
entirely) and `--candidate` from the default build with telemetry compiled
in but runtime-disabled. The gate enforces two contracts from DESIGN.md
§11:

  1. Observation purity: per engine config, benefit_evaluations / moves /
     rounds are bit-identical across every run of both builds — the
     instrumentation may not perturb the solver.
  2. Overhead: the candidate's median total solve_ms over the
     instrumented engine configs is within --tolerance (default 3%) of the
     baseline's median. The `full` config is the uninstrumented test
     oracle, compiled identically in both builds, so it is left out of the
     sum. Medians over interleaved runs absorb most CI wall-clock noise;
     pass several files per side.

Usage:
  check_overhead.py --baseline off1.json off2.json ... \
                    --candidate on1.json on2.json ... [--tolerance 0.03]
Exit status 0 on pass, 1 with a diagnostic on violation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(paths: list[Path]) -> list[dict]:
    runs = []
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"check_overhead: cannot load {path}: {error}",
                  file=sys.stderr)
            sys.exit(1)
        if doc.get("bench") != "perf_game" or "configs" not in doc:
            print(f"check_overhead: {path} is not a perf_game report",
                  file=sys.stderr)
            sys.exit(1)
        runs.append(doc)
    return runs


def counts_by_config(run: dict) -> dict[str, tuple[int, int, int]]:
    return {
        config["name"]: (
            config["benefit_evaluations"],
            config["moves"],
            config["rounds"],
        )
        for config in run["configs"]
    }


# Configs that run no instrumented code: their time is the same in both
# builds and would only dilute the overhead ratio.
UNINSTRUMENTED_CONFIGS = {"full"}


def total_solve_ms(run: dict) -> float:
    return sum(config["solve_ms"] for config in run["configs"]
               if config["name"] not in UNINSTRUMENTED_CONFIGS)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", nargs="+", type=Path, required=True,
                        help="perf_game JSON files from the IDDE_OBS=0 build")
    parser.add_argument("--candidate", nargs="+", type=Path, required=True,
                        help="perf_game JSON files from the default build "
                             "(telemetry compiled in, runtime-disabled)")
    parser.add_argument("--tolerance", type=float, default=0.03,
                        help="allowed relative median slowdown (default 0.03)")
    options = parser.parse_args()

    baseline = load_runs(options.baseline)
    candidate = load_runs(options.candidate)

    # Contract 1: solver dynamics are bit-identical everywhere.
    reference = counts_by_config(baseline[0])
    for side, runs in (("baseline", baseline), ("candidate", candidate)):
        for run, path in zip(runs, options.baseline if side == "baseline"
                             else options.candidate):
            counts = counts_by_config(run)
            if counts != reference:
                print(
                    f"check_overhead: {side} run {path} diverged from the "
                    f"reference dynamics:\n  reference: {reference}\n  "
                    f"got:       {counts}",
                    file=sys.stderr,
                )
                return 1

    base_ms = statistics.median(total_solve_ms(run) for run in baseline)
    cand_ms = statistics.median(total_solve_ms(run) for run in candidate)
    if base_ms <= 0.0:
        print("check_overhead: baseline median is non-positive",
              file=sys.stderr)
        return 1
    overhead = cand_ms / base_ms - 1.0
    verdict = "ok" if overhead <= options.tolerance else "FAIL"
    print(
        f"check_overhead: baseline median {base_ms:.2f} ms over "
        f"{len(baseline)} run(s), candidate median {cand_ms:.2f} ms over "
        f"{len(candidate)} run(s): {overhead:+.2%} "
        f"(tolerance +{options.tolerance:.0%}) — {verdict}"
    )
    if overhead > options.tolerance:
        print(
            "check_overhead: the runtime-disabled telemetry path exceeded "
            "the overhead budget; every instrumentation hit must stay one "
            "relaxed load + branch (see src/obs/obs.hpp)",
            file=sys.stderr,
        )
        return 1
    print(f"check_overhead: dynamics bit-identical across "
          f"{len(baseline) + len(candidate)} run(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
