"""Rule registry.

A rule pack module exposes:
  RULES            {rule_id: one-line description}
  scan(sf, cfg)    per-file pass -> (list[Finding], facts dict) — runs in
                   worker processes, must not touch global state;
and optionally:
  global_scan(reports, cfg) -> list[Finding] — runs once after every file
                   has been scanned, for whole-project analyses (the lock
                   graph is the canonical example).

Adding a rule: pick the pack (or add one), register the id in RULES, emit
Findings with a line-number-free `key`, add a fixture with the violation
plus its suppressed/baselined variants, and regenerate the golden output
(tools/analyze/tests/run_selftests.py --regen). DESIGN.md section 14 keeps
the catalog.
"""

from __future__ import annotations

from . import (concurrency, determinism, layering, legacy, performance,
               robustness, units)

PACKS = (legacy, concurrency, determinism, robustness, units, performance,
         layering)

ALL_RULES: dict[str, str] = {}
for _pack in PACKS:
    for _rule, _desc in _pack.RULES.items():
        if _rule in ALL_RULES:
            raise RuntimeError(f"duplicate rule id: {_rule}")
        ALL_RULES[_rule] = _desc
