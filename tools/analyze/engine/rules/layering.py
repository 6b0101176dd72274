"""Layering pack: test oracles stay out of the shipped library.

  oracle-in-production   a file under src/ that includes an `oracles/`
                         header or names the `idde::oracle` namespace.
                         Reference implementations (the full-scan game
                         engine, ...) live in the test/bench-only
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


def scan(sf: SourceFile, cfg: Config):
    if not cfg.in_scope(sf.rel, PRODUCTION_SCOPE):
        return [], {"suppressed": 0}
    findings: list[Finding] = []
    suppressed = 0
    for lineno, code in enumerate(sf.code_lines, 1):
        keys = []
        if INCLUDE.match(code):
            header = ORACLE_HEADER.search(sf.raw_lines[lineno - 1])
            if header:
                keys.append(f"include:{header.group('path')}")
        if ORACLE_NAME.search(code):
            keys.append("name:idde::oracle")
        for key in keys:
            if sf.allowed(lineno, "oracle-in-production"):
                suppressed += 1
                continue
            findings.append(Finding(sf.rel, lineno, "oracle-in-production",
                                    key, RULES["oracle-in-production"]))
    return findings, {"suppressed": suppressed}
