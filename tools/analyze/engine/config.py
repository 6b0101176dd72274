"""Analysis configuration: scope and vocabulary, overridable from JSON.

The defaults encode this repository's conventions. The analyzer self-tests
point `--config` at a small JSON file to rescope the engine onto a fixture
tree; production runs use the defaults plus the committed baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

SOURCE_SUFFIXES = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hxx")
HEADER_SUFFIXES = (".hpp", ".h", ".hxx")


@dataclass
class Config:
    # Directory roots scanned for sources, relative to the analysis root.
    # tests/ is deliberately out of scope: the concurrency stress suite
    # drives the pool with raw std::thread on purpose.
    roots: list[str] = field(default_factory=lambda: [
        "src", "bench", "tools", "examples",
    ])
    # Subtrees pruned from discovery. The analyzer's own fixtures are
    # violations on purpose; scanning them would fail every repo run.
    exclude: list[str] = field(default_factory=lambda: [
        "tools/analyze/tests/fixtures",
    ])

    # Scope prefixes (repo-relative directories, "/"-joined).
    sync_exempt: list[str] = field(default_factory=lambda: ["src/util"])
    sleep_exempt: list[str] = field(
        default_factory=lambda: ["src/util", "src/des"])
    timing_exempt: list[str] = field(
        default_factory=lambda: ["src/util", "src/obs"])
    queue_scoped: list[str] = field(
        default_factory=lambda: ["src/qos", "src/des", "src/coding"])
    atomic_exempt: list[str] = field(
        default_factory=lambda: ["src/util", "src/obs"])
    # Determinism, unit-safety, and retry-bound packs police shipped
    # library code only.
    determinism_scope: list[str] = field(default_factory=lambda: ["src"])
    unit_scope: list[str] = field(default_factory=lambda: ["src"])
    retry_scope: list[str] = field(default_factory=lambda: ["src"])
    # Wait-for-completion loops must carry an escape hatch (deadline,
    # retry budget, timeout) in the layers that replay or serve deliveries.
    hedge_scope: list[str] = field(
        default_factory=lambda: ["src/des", "src/serve"])

    # Hot-tagged kernel files: benchmarked allocation-free per move
    # (bench/perf_kernels gates on the warm-call allocation count).
    hot_path_files: list[str] = field(default_factory=lambda: [
        "src/radio/interference.cpp",
        "src/radio/batch_eval.cpp",
        "src/radio/batch_eval.hpp",
        "src/core/greedy_delivery.cpp",
        "src/core/repair_planner.cpp",
        "src/coding/coded_evaluator.cpp",
        "src/coding/coded_planner.cpp",
        "src/core/resolver.cpp",
        "src/des/fluid.hpp",
        "src/net/shortest_path.cpp",
        "src/fault/injector.cpp",
        "src/model/instance_builder.cpp",
        "src/dynamic/world.cpp",
    ])

    # Unit-safety vocabulary. A double/int64 parameter or double-returning
    # function in a public header whose name contains a QUANTITY token must
    # also contain a UNIT token, unless a DIMENSIONLESS token marks it as a
    # pure number (scale factors, probabilities, exponents).
    quantity_tokens: list[str] = field(default_factory=lambda: [
        "power", "noise", "interference", "energy",
        "latency", "delay", "timeout", "deadline", "backoff", "duration",
        "elapsed", "interval", "period", "window", "now", "wait", "makespan",
        "bandwidth", "speed", "rate", "throughput", "goodput",
        "storage", "size",
        "distance", "radius",
        "freq", "frequency",
    ])
    unit_tokens: list[str] = field(default_factory=lambda: [
        "ns", "us", "ms", "s", "sec", "secs", "seconds", "minutes", "hours",
        "hz", "khz", "mhz", "ghz",
        "db", "dbm", "watts", "mw", "kw",
        "bits", "bytes", "kb", "mb", "gb", "tb",
        "kbps", "mbps", "gbps", "rps", "qps",
        "m", "km", "cm", "m2",
        "pct",
    ])
    dimensionless_tokens: list[str] = field(default_factory=lambda: [
        "scale", "factor", "ratio", "fraction", "prob", "probability",
        "multiplier", "exponent", "share", "weight", "coefficient",
        "index", "count", "quantile", "eta", "alpha", "beta", "gamma",
    ])

    def in_scope(self, rel: str, prefixes: list[str]) -> bool:
        return any(rel == p or rel.startswith(p + "/") for p in prefixes)

    @classmethod
    def load(cls, path: Path | None) -> "Config":
        cfg = cls()
        if path is None:
            return cfg
        data = json.loads(path.read_text())
        unknown = set(data) - set(cfg.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown config keys in {path}: {sorted(unknown)}")
        for key, value in data.items():
            setattr(cfg, key, value)
        return cfg
