"""Layering pack: test oracles stay out of the shipped library.

  oracle-in-production   a file under src/ that includes an `oracles/`
                         header, names the `idde::oracle` namespace,
                         names a `*_reference` function (the naming of a
                         from-scratch reference) or carries a
                         `lint: alloc-ok(oracle)` marker (the allocation
                         waiver of a rebuild oracle's loop). Reference
                         implementations (the full-scan game engine,
                         Floyd–Warshall, the SINR/benefit references,
                         the instance rebuild, ...) live in the
                         test/bench-only
                         `idde_oracles` target under tests/oracles/; the
                         perfbench package builds src/ alone and never
                         compiles them, and production option structs keep
                         only knobs a user would turn. An oracle reached
                         from src/ would put the second engine back behind
                         a switch.
"""

from __future__ import annotations

import re

from ..config import Config
from ..findings import Finding
from ..source import SourceFile

RULES = {
    "oracle-in-production": (
        "src/ reaches a test oracle (an oracles/ header or idde::oracle); "
        "oracles live in the test/bench-only idde_oracles target"),
}

# Shipped library code, which must not reach a test oracle.
PRODUCTION_SCOPE = ["src"]
# The stripper blanks string literals, so the include path is read from the
# raw line once the stripped line shows a real (uncommented) #include.
INCLUDE = re.compile(r"^\s*#\s*include\b")
ORACLE_HEADER = re.compile(
    r"""#\s*include\s*[<"](?P<path>(?:[^">]*/)?oracles/[^">]*)[">]""")
# `idde::oracle` spelled out (declarations included), or an unqualified
# `oracle::` / `namespace oracle` inside namespace idde.
ORACLE_NAME = re.compile(
    r"\bidde\s*::\s*oracle\b|(?<![\w:])oracle\s*::|\bnamespace\s+oracle\b")
# Message for an oracle that lives in src/ itself rather than reaching
# tests/oracles/.
HELD_MESSAGE = (
    "src/ holds a test oracle (a *_reference function or an "
    "alloc-ok(oracle) waiver); oracles live in the test/bench-only "
    "idde_oracles target")
# A from-scratch reference by its naming convention (code only, so a
# comment that points at tests/oracles/ stays quiet).
REFERENCE_NAME = re.compile(r"\b(?P<name>\w+_reference)\b")
# The allocation waiver only an oracle's rebuild loop carries (a comment,
# so it is read from the raw line).
ORACLE_ALLOC_MARKER = re.compile(r"//\s*lint:\s*alloc-ok\(\s*oracle\s*\)")


def scan(sf: SourceFile, cfg: Config):
    if not cfg.in_scope(sf.rel, PRODUCTION_SCOPE):
        return [], {"suppressed": 0}
    findings: list[Finding] = []
    suppressed = 0
    for lineno, code in enumerate(sf.code_lines, 1):
        reached = RULES["oracle-in-production"]
        keys = []
        if INCLUDE.match(code):
            header = ORACLE_HEADER.search(sf.raw_lines[lineno - 1])
            if header:
                keys.append((f"include:{header.group('path')}", reached))
        if ORACLE_NAME.search(code):
            keys.append(("name:idde::oracle", reached))
        for match in REFERENCE_NAME.finditer(code):
            keys.append((f"name:{match.group('name')}", HELD_MESSAGE))
        if ORACLE_ALLOC_MARKER.search(sf.raw_lines[lineno - 1]):
            keys.append(("marker:alloc-ok(oracle)", HELD_MESSAGE))
        for key, message in keys:
            if sf.allowed(lineno, "oracle-in-production"):
                suppressed += 1
                continue
            findings.append(Finding(sf.rel, lineno, "oracle-in-production",
                                    key, message))
    return findings, {"suppressed": suppressed}
