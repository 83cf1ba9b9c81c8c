"""Findings: what a rule reports.

A :class:`Finding` pins one rule violation to a source location.  The
only way to accept one is an inline ``# spiderlint: disable=SPDRnnn``
comment at that location (see :mod:`repro.analysis.engine`).

Dataflow findings (SPDR006–008) additionally carry a ``trace`` — the
source→sink path — which the text output prints under the finding and
``--format json`` carries as a list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str            # normalized module path, e.g. "repro/spider/wire.py"
    line: int            # 1-based
    column: int          # 0-based, as ast reports it
    message: str
    #: source→sink path for dataflow findings; empty for AST rules.
    trace: Tuple[str, ...] = ()

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.column + 1}: "
                f"{self.rule_id} {self.message}")

    def render_trace(self) -> List[str]:
        """Human-readable source→sink path lines (may be empty)."""
        return [f"  {index}. {step}"
                for index, step in enumerate(self.trace, start=1)]
