"""Command-line front end: ``python -m repro.analysis``.

Usage patterns::

    python -m repro.analysis src                    # lint, exit 1 on findings
    python -m repro.analysis src --engine dataflow  # SPDR006/008 taint pass
    python -m repro.analysis src --engine all       # both
    python -m repro.analysis src --engine all --format json
    python -m repro.analysis src --engine all --stats stats.json
    python -m repro.analysis --list-rules

Exit status: 0 when no findings and no parse errors, 1 when findings
remain, 2 for usage errors.  A finding is accepted only by an inline
``# spiderlint: disable=SPDRnnn`` comment at its line.

The ``lint`` engine runs the per-file AST/CFG rules (SPDR001–005,
SPDR007); the ``dataflow`` engine runs the whole-program privacy-taint
rules (SPDR006, SPDR008), whose findings print an indented source→sink
path trace (``--format json`` carries it as ``trace``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

from .engine import AnalysisResult, Engine, Rule
from .findings import Finding
from .rules import all_rules
from .taint import analyze_paths_dataflow


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="spiderlint: SPIDeR-specific static analysis")
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--engine", choices=("lint", "dataflow", "all"),
                        default="lint",
                        help="lint = per-file AST/CFG rules; dataflow = "
                             "whole-program privacy taint (SPDR006/008)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--rules", metavar="IDS", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all; lint engine only)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--stats", metavar="FILE", default=None,
                        help="write per-rule runtime and finding "
                             "counts to FILE as JSON")
    return parser


def _select_rules(spec: Optional[str]) -> List[Rule]:
    rules = all_rules()
    if spec is None:
        return rules
    wanted = {part.strip() for part in spec.split(",") if part.strip()}
    known = {rule.rule_id for rule in rules}
    unknown = wanted - known
    if unknown:
        raise SystemExit(
            f"unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})")
    return [rule for rule in rules if rule.rule_id in wanted]


def _merge_results(into: AnalysisResult,
                   extra: AnalysisResult) -> AnalysisResult:
    into.findings.extend(extra.findings)
    into.suppressed += extra.suppressed
    into.files_analyzed = max(into.files_analyzed, extra.files_analyzed)
    into.parse_errors.extend(extra.parse_errors)
    into.findings.sort(key=lambda f: (f.path, f.line, f.column,
                                      f.rule_id))
    # Parse errors are reported once even when both engines saw them.
    into.parse_errors = sorted(set(into.parse_errors))
    return into


def _emit(result: AnalysisResult, output_format: str) -> None:
    if output_format == "json":
        doc = {
            "files_analyzed": result.files_analyzed,
            "suppressed": result.suppressed,
            "parse_errors": result.parse_errors,
            "findings": [
                {"rule": f.rule_id, "path": f.path, "line": f.line,
                 "column": f.column, "message": f.message,
                 "trace": list(f.trace)}
                for f in result.findings
            ],
        }
        print(json.dumps(doc, indent=2))
        return
    for error in result.parse_errors:
        print(error)
    for finding in result.findings:
        print(finding.render())
        for line in finding.render_trace():
            print(line)
    summary = (f"spiderlint: {result.files_analyzed} files, "
               f"{len(result.findings)} finding(s), "
               f"{result.suppressed} suppressed")
    print(summary, file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.title}")
        print("SPDR006  private state reaches a public sink without a "
              "declassifier (dataflow)")
        print("SPDR008  tainted values interpolated into raised "
              "exception text (dataflow)")
        return 0

    paths = list(args.paths) or ["src"]
    stats: Dict[str, object] = {"engine": args.engine}

    result = AnalysisResult()
    if args.engine in ("lint", "all"):
        engine = Engine(_select_rules(args.rules))
        t0 = time.perf_counter()
        lint_result = engine.analyze_paths(paths)
        lint_seconds = time.perf_counter() - t0
        stats["lint"] = {
            "seconds": round(lint_seconds, 4),
            "files": lint_result.files_analyzed,
            "findings": _per_rule_counts(lint_result.findings),
        }
        result = _merge_results(result, lint_result)
    if args.engine in ("dataflow", "all"):
        phase: Dict[str, float] = {}
        t0 = time.perf_counter()
        flow_result = analyze_paths_dataflow(paths, stats=phase)
        flow_seconds = time.perf_counter() - t0
        stats["dataflow"] = {
            "seconds": round(flow_seconds, 4),
            "parse_seconds": round(phase.get("parse_seconds", 0.0), 4),
            "solve_seconds": round(phase.get("solve_seconds", 0.0), 4),
            "functions": int(phase.get("functions", 0)),
            "findings": _per_rule_counts(flow_result.findings),
        }
        result = _merge_results(result, flow_result)

    if args.stats is not None:
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")

    _emit(result, args.format)
    return 0 if result.ok else 1


def _per_rule_counts(findings: List[Finding]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    return counts
