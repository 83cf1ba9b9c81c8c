"""Findings: what a rule reports and how a baseline remembers it.

A :class:`Finding` pins one rule violation to a source location.  The
*fingerprint* is deliberately line-number-free **and whitespace-free**:
it hashes the rule id, the normalized module path, a hash of the
whitespace-normalized text of the offending line (the "snippet"), and
an occurrence counter (for identical snippets in one file).  Unrelated
edits that shift code up or down — or re-indent it, e.g. wrapping the
offending statement in a new ``if`` — therefore do not invalidate a
committed baseline, while any real edit to the offending code does:
exactly the semantics a ratchet file needs.

This is fingerprint schema **v2**.  The v1 scheme hashed the raw
stripped line text, so a pure re-indent (which changes internal
spacing when lines are re-wrapped) could resurrect baselined findings.

Dataflow findings (SPDR006–008) additionally carry a ``trace`` — the
source→sink path — which is presentation only and never part of the
fingerprint (a refactor that reroutes an unchanged leak should not
un-baseline it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

#: Version tag mixed into every fingerprint, bumped with the schema.
FINGERPRINT_SCHEMA = 2


def normalize_snippet(line_text: str) -> str:
    """Collapse all whitespace runs so layout edits don't change it."""
    return " ".join(line_text.split())


def snippet_hash(line_text: str) -> str:
    normalized = normalize_snippet(line_text)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


def compute_fingerprint(rule_id: str, path: str, line_text: str,
                        occurrence: int) -> str:
    """The v2 identity: (rule, path, snippet-hash, occurrence)."""
    basis = "\x1f".join((f"v{FINGERPRINT_SCHEMA}", rule_id, path,
                         snippet_hash(line_text), str(occurrence)))
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str            # normalized module path, e.g. "repro/spider/wire.py"
    line: int            # 1-based
    column: int          # 0-based, as ast reports it
    message: str
    line_text: str = ""  # stripped source of the offending line
    occurrence: int = 0  # ordinal among identical (rule, path, snippet)
    #: source→sink path for dataflow findings; empty for AST rules.
    trace: Tuple[str, ...] = ()

    def fingerprint(self) -> str:
        """Stable identity used by the baseline file."""
        return compute_fingerprint(self.rule_id, self.path,
                                   self.line_text, self.occurrence)

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.column + 1}: "
                f"{self.rule_id} {self.message}")

    def render_trace(self) -> List[str]:
        """Human-readable source→sink path lines (may be empty)."""
        return [f"  {index}. {step}"
                for index, step in enumerate(self.trace, start=1)]


def assign_occurrences(findings: List[Finding]) -> List[Finding]:
    """Number findings that share (rule, path, normalized snippet).

    Two hits on equivalent lines in one file would otherwise collide
    to one fingerprint, letting a baseline entry excuse both.
    """
    counts: Dict[str, int] = {}
    out: List[Finding] = []
    for finding in findings:
        key = "\x1f".join((finding.rule_id, finding.path,
                           normalize_snippet(finding.line_text)))
        ordinal = counts.get(key, 0)
        counts[key] = ordinal + 1
        if ordinal != finding.occurrence:
            finding = replace(finding, occurrence=ordinal)
        out.append(finding)
    return out
