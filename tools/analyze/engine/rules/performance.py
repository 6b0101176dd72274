"""Performance pack: moves that silently copy.

  init-list-move    `std::move(` inside a braced `JsonObject{...}` or
                    `JsonArray{...}` initializer. The braces build a
                    std::initializer_list, whose elements are const, so
                    the container copies every element out of it: the
                    moved-from value is copied, not moved. For a
                    `util::Json` holding an array or object that is a deep
                    copy of the whole subtree. The instance writer once
                    held three copies of the N x M gain DOM this way. Build
                    the container with `emplace` (or `operator[]`) instead,
                    so the move stays a move.
"""

from __future__ import annotations

import re

from ..config import Config
from ..findings import Finding
from ..source import SourceFile

RULES = {
    "init-list-move": (
        "std::move( inside a braced JsonObject{...}/JsonArray{...} "
        "initializer: initializer_list elements are const, so the value "
        "is deep-copied, not moved; build the container with emplace"),
}

# A braced initializer of the two container aliases: a temporary
# (`JsonObject{`), a declaration (`JsonObject doc{`, `JsonArray a = {`).
BRACED_INIT = re.compile(
    r"\b(?P<kind>JsonObject|JsonArray)\s*(?:[A-Za-z_]\w*\s*)?(?:=\s*)?\{")
MOVE = re.compile(r"\bstd::move\s*\(")


def _close(code: str, start: int, open_char: str, close_char: str) -> int:
    """Offset one past the bracket that closes the one at `start`."""
    depth = 0
    for pos in range(start, len(code)):
        if code[pos] == open_char:
            depth += 1
        elif code[pos] == close_char:
            depth -= 1
            if depth == 0:
                return pos + 1
    return len(code)


def scan(sf: SourceFile, cfg: Config):
    del cfg  # every scanned file is in scope
    findings: list[Finding] = []
    facts = {"suppressed": 0}
    reported: set[int] = set()  # nested initializers share their moves
    for init in BRACED_INIT.finditer(sf.code):
        brace = init.end() - 1
        end = _close(sf.code, brace, "{", "}")
        for move in MOVE.finditer(sf.code, brace, end):
            if move.start() in reported:
                continue
            reported.add(move.start())
            paren = move.end() - 1
            argument = " ".join(
                sf.code[paren + 1:_close(sf.code, paren, "(", ")") - 1]
                .split())
            line = sf.line_of(move.start())
            if sf.allowed(line, "init-list-move"):
                facts["suppressed"] += 1
                continue
            findings.append(Finding(
                sf.rel, line, "init-list-move",
                f"{init.group('kind')}:{argument}",
                f"`std::move({argument})` inside a braced "
                f"{init.group('kind')} initializer is a copy: "
                "initializer_list elements are const. Build the container "
                "with emplace so the move stays a move"))
    return findings, facts
