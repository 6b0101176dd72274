"""Robustness pack: retry loops must be visibly bounded.

PR 5 set the convention — every retry path spends from a
`qos::RetryBudget`, checks an attempt cap, or runs under a deadline —
and the serve controller's backlog re-enqueue keeps it. A retry loop
with no bound is how a single flaky dependency turns into a retry storm
that outlives the incident, so the absence of a bound must be loud:

  unbounded-retry   a retry continuation (a retry/attempt counter
                    increment, or a backoff-delayed re-enqueue) in a file
                    that never references a retry bound. Recognised
                    bounds: RetryBudget / try_spend_retry / retry_budget,
                    max_retries / max_attempts / retry_limit /
                    attempt_cap, a deadline, or a direct comparison of
                    the attempt counter (`attempt < kMax`). The check is
                    file-granular on purpose: the budget guard usually
                    lives in a different function than the re-enqueue
                    site (serve::ServeController::enqueue_repair vs
                    drain_backlog is the canonical shape).

  unhedged-wait     a wait-for-completion loop (a `while`/`do` condition
                    watching pending / in-flight / completed state) in the
                    DES or serve layer of a file that never references a
                    deadline, retry budget, or timeout. Gray failures
                    make such waits a liveness bug: a leg stuck behind a
                    slow-not-dead server parks the loop forever unless
                    *something* in the file can preempt it
                    (a deadline, retry budget, timeout, or an epoch
                    abort). File-granular like unbounded-retry: the
                    escape hatch legitimately lives in a sibling function.
"""

from __future__ import annotations

import re

from ..config import Config
from ..findings import Finding
from ..source import SourceFile

RULES = {
    "unbounded-retry": (
        "retry/backoff continuation in a file with no visible retry bound "
        "(RetryBudget, deadline, or attempt cap); bound the loop or "
        "justify it in the baseline"),
    "unhedged-wait": (
        "DES/serve wait-for-completion loop in a file that never "
        "references a deadline, retry budget, or timeout; give the "
        "wait an escape hatch or justify it in the baseline"),
}

# A retry continuation being created: the counter moves forward...
RETRY_STEP = re.compile(
    r"\+\+\s*(?:[A-Za-z_]\w*(?:\.|->))*(?P<pre>retries|retry_count|attempts?)\b"
    r"|\b(?:[A-Za-z_]\w*(?:\.|->))*(?P<post>retries|retry_count|attempts?)"
    r"\s*(?:\+\+|\+=|\+\s*1\b)")
# ...or the work is re-enqueued after a backoff delay.
BACKOFF_ENQUEUE = re.compile(
    r"\b(?:\w+\s*(?:\.|->)\s*)?"
    r"(?:push|push_back|emplace|emplace_back|enqueue\w*|schedule\w*)"
    r"\s*\([^;]*backoff", re.DOTALL)

# Anything that bounds the retries, per the PR 5 vocabulary. Matched
# against stripped code, so a comment claiming a bound does not count.
BOUND_MARKER = re.compile(
    r"\bRetryBudget\b|\btry_spend_retry\b|\bretry_budget\b"
    r"|\bmax_retries\b|\bmax_attempts\b|\bretry_limit\b|\battempt_cap\b"
    r"|deadline", re.IGNORECASE)
# A direct comparison of the counter is an attempt cap (`attempt < 16`).
COUNTER_CAP = re.compile(
    r"\b(?:[A-Za-z_]\w*(?:\.|->))*(?:retries|retry_count|attempts?)\b"
    r"\s*(?:<=?|>=?)\s*[A-Za-z_0-9]")


# A loop blocked on delivery progress: `while`/`do` whose condition reads
# pending / in-flight / completion state. The single-line condition match
# is deliberate — the codebase's event loops keep the condition on the
# `while` line, and a multi-line condition still matches its first line.
WAIT_LOOP = re.compile(
    r"\b(?:while|do)\b\s*\([^)\n]*?"
    r"(?P<state>pending|in_flight|inflight|outstanding|unfinished"
    r"|completed|complete|remaining|in_progress|!\s*\w*done)\b")
# Anything that can preempt a stuck wait. Matched against stripped code,
# so a comment claiming an escape hatch does not count.
ESCAPE_HATCH = re.compile(
    r"\bdeadline\w*\b"
    r"|\bRetryBudget\b|\btry_spend_retry\b|\bretry_budget\b"
    r"|\btimeout\w*\b|\bmax_retries\b|\bepoch_abort\w*\b",
    re.IGNORECASE)


def scan(sf: SourceFile, cfg: Config):
    findings: list[Finding] = []
    facts = {"suppressed": 0}
    findings += _scan_unbounded_retry(sf, cfg, facts)
    findings += _scan_unhedged_wait(sf, cfg, facts)
    return findings, facts


def _scan_unbounded_retry(sf: SourceFile, cfg: Config, facts: dict):
    findings: list[Finding] = []
    if not cfg.in_scope(sf.rel, cfg.retry_scope):
        return findings
    if BOUND_MARKER.search(sf.code) or COUNTER_CAP.search(sf.code):
        return findings

    seen: set[tuple[int, str]] = set()

    def report(line: int, key: str) -> None:
        if (line, key) in seen:
            return
        seen.add((line, key))
        if sf.allowed(line, "unbounded-retry"):
            facts["suppressed"] += 1
        else:
            findings.append(Finding(
                sf.rel, line, "unbounded-retry", key,
                f"`{key.split(':', 1)[1]}` advances a retry with no "
                "visible bound anywhere in this file: reference a "
                "RetryBudget, a deadline, or an attempt cap "
                "(or justify the exception in the baseline)"))

    for match in RETRY_STEP.finditer(sf.code):
        counter = match.group("pre") or match.group("post")
        report(sf.line_of(match.start()), f"retry:{counter}")
    for match in BACKOFF_ENQUEUE.finditer(sf.code):
        report(sf.line_of(match.start()), "retry:backoff-enqueue")
    return findings


def _scan_unhedged_wait(sf: SourceFile, cfg: Config, facts: dict):
    findings: list[Finding] = []
    if not cfg.in_scope(sf.rel, cfg.hedge_scope):
        return findings
    if ESCAPE_HATCH.search(sf.code):
        return findings

    seen: set[tuple[int, str]] = set()
    for match in WAIT_LOOP.finditer(sf.code):
        line = sf.line_of(match.start())
        state = match.group("state")
        key = f"wait:{state}"
        if (line, key) in seen:
            continue
        seen.add((line, key))
        if sf.allowed(line, "unhedged-wait"):
            facts["suppressed"] += 1
        else:
            findings.append(Finding(
                sf.rel, line, "unhedged-wait", key,
                f"loop waits on `{state}` with no deadline, retry "
                "budget, or timeout anywhere in this file: a slow-not-dead "
                "server parks this wait forever — add an escape hatch "
                "(or justify the exception in the baseline)"))
    return findings
