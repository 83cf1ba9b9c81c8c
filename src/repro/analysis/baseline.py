"""The committed findings baseline — a ratchet, not a dumping ground.

The baseline file records fingerprints of findings that predate a rule
(or that a PR consciously grandfathers).  ``python -m repro.analysis``
subtracts baselined findings from its output, so CI can demand *zero
non-baselined findings* from the first commit while legacy debt is paid
down incrementally.  The companion shrink check
(``--check-shrunk OLD NEW``) enforces the ratchet direction: a baseline
may lose entries over time but may never gain one — new code never gets
grandfathered.

Baseline schema v2 keys entries by the v2 fingerprint of
:mod:`repro.analysis.findings` — (rule, path, whitespace-normalized
snippet hash, occurrence) — so unrelated edits that shift line numbers
or re-indent the offending line cannot resurrect a baselined finding.
Any other schema version is rejected by :func:`load_baseline`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Set

from .findings import Finding

BASELINE_VERSION = 2


class BaselineError(ValueError):
    """Raised for malformed or wrong-version baseline files."""


def _read_doc(path: str) -> Dict[str, object]:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise BaselineError(f"cannot read baseline {path!r}: {exc}") \
            from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BaselineError(f"baseline {path!r} is not JSON: {exc}") \
            from exc
    if not isinstance(doc, dict):
        raise BaselineError(
            f"baseline {path!r} has unsupported structure")
    return doc


def load_baseline(path: str) -> Set[str]:
    """Read a baseline file into a set of finding fingerprints."""
    doc = _read_doc(path)
    if doc.get("version") != BASELINE_VERSION:
        raise BaselineError(
            f"baseline {path!r} has unsupported structure/version")
    entries = doc.get("findings")
    if not isinstance(entries, list):
        raise BaselineError(f"baseline {path!r} lacks a findings list")
    fingerprints: Set[str] = set()
    for entry in entries:
        if isinstance(entry, str):
            fingerprints.add(entry)
        elif isinstance(entry, dict) and \
                isinstance(entry.get("fingerprint"), str):
            fingerprints.add(entry["fingerprint"])
        else:
            raise BaselineError(
                f"baseline {path!r} has a malformed entry: {entry!r}")
    return fingerprints


def write_baseline(path: str, findings: List[Finding]) -> None:
    """Persist the given findings as the new baseline.

    Entries carry the human-readable location alongside the fingerprint
    so reviewers can audit what is being grandfathered; only the
    fingerprint participates in matching.
    """
    entries = [
        {"fingerprint": finding.fingerprint(),
         "rule": finding.rule_id,
         "location": f"{finding.path}:{finding.line}",
         "line": finding.line_text}
        for finding in sorted(
            findings, key=lambda f: (f.path, f.line, f.rule_id))
    ]
    doc = {"version": BASELINE_VERSION, "findings": entries}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n",
                          encoding="utf-8")


def check_shrunk(old_path: str, new_path: str) -> List[str]:
    """Fingerprints present in NEW but not in OLD (must be empty).

    Used by CI against the previous commit's baseline: an empty return
    means the ratchet only moved the permitted direction.
    """
    old = load_baseline(old_path)
    new = load_baseline(new_path)
    return sorted(new - old)
