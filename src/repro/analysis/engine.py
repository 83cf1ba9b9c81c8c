"""The spiderlint rule engine.

A *rule* is a class with an id (``SPDR###``), a scope predicate over
normalized module paths, and a ``check`` method that walks a parsed AST
and reports findings through the :class:`RuleContext`.  The engine

* normalizes file paths so rules reason about module identity
  (``repro/spider/wire.py``) rather than filesystem layout;
* parses each file once and hands the same tree to every in-scope rule;
* honors per-line suppression comments
  (``# spiderlint: disable=SPDR001,SPDR002`` — on the offending line or
  the line directly above it; bare ``disable`` silences every rule),
  the only way to accept a finding.  :func:`finalize_findings` applies
  them, for this engine and for the dataflow driver alike.

Rules must be deterministic and purely syntactic: no imports of the
analyzed code, no filesystem access beyond the source text they are
handed.  That keeps ``python -m repro.analysis`` safe to run on any
tree, including broken ones.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .findings import Finding

#: Matches one suppression comment anywhere in a line's trailing comment.
_SUPPRESS_RE = re.compile(
    r"#\s*spiderlint:\s*disable(?:=(?P<rules>[A-Z0-9, ]+))?")


def parse_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule ids silenced there.

    The sentinel ``"*"`` means every rule.  A suppression comment covers
    its own line and, when the comment is the whole line, the line below
    it (so a long offending line can carry the comment above itself).
    """
    silenced: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        ids: Set[str] = {"*"} if rules is None else {
            part.strip() for part in rules.split(",") if part.strip()}
        silenced.setdefault(lineno, set()).update(ids)
        if text.lstrip().startswith("#"):
            silenced.setdefault(lineno + 1, set()).update(ids)
    return silenced


def is_suppressed(finding: Finding,
                  silenced: Dict[int, Set[str]]) -> bool:
    ids = silenced.get(finding.line)
    if not ids:
        return False
    return "*" in ids or finding.rule_id in ids


def normalize_path(path: str) -> str:
    """Reduce a filesystem path to a module path rooted at ``repro/``.

    ``src/repro/spider/wire.py`` and ``/abs/.../src/repro/spider/wire.py``
    both become ``repro/spider/wire.py``; paths without a ``repro``
    component are returned as given (posix-slashed), which is what the
    fixture self-tests use to place virtual modules in rule scopes.
    """
    parts = Path(path).as_posix().split("/")
    for index, part in enumerate(parts):
        if part == "repro":
            return "/".join(parts[index:])
    return "/".join(parts)


class RuleContext:
    """Everything one rule needs to analyze one module."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.findings: List[Finding] = []

    def report(self, rule_id: str, node: ast.AST, message: str) -> None:
        lineno = int(getattr(node, "lineno", 1))
        column = int(getattr(node, "col_offset", 0))
        self.findings.append(Finding(
            rule_id=rule_id, path=self.path, line=lineno, column=column,
            message=message))


class Rule:
    """Base class for spiderlint rules."""

    rule_id: str = "SPDR000"
    title: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule should run on the module at ``path``."""
        return True

    def check(self, ctx: RuleContext) -> None:
        raise NotImplementedError


@dataclass(slots=True)
class AnalysisResult:
    """Outcome of one engine run over a set of files."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_analyzed: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors


class Engine:
    """Runs a set of rules over source files or raw source text."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules = list(rules)

    def analyze_source(self, source: str, path: str) -> AnalysisResult:
        """Analyze one module given as text (``path`` may be virtual)."""
        result = AnalysisResult(files_analyzed=1)
        module_path = normalize_path(path)
        try:
            tree = ast.parse(source, filename=module_path)
        except SyntaxError as exc:
            result.parse_errors.append(
                f"{module_path}:{exc.lineno or 0}: syntax error: "
                f"{exc.msg}")
            return result
        except ValueError as exc:
            # ast.parse raises bare ValueError for e.g. NUL bytes in
            # the source; surface it as a parse error, never a crash.
            result.parse_errors.append(
                f"{module_path}:0: unparseable source: {exc}")
            return result
        lines = source.splitlines()
        raw: List[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(module_path):
                continue
            ctx = RuleContext(module_path, tree)
            rule.check(ctx)
            raw.extend(ctx.findings)
        finalize_findings(raw, {module_path: parse_suppressions(lines)},
                          result)
        return result

    def analyze_paths(self, paths: Iterable[str]) -> AnalysisResult:
        """Analyze every ``*.py`` file under the given paths."""
        merged = AnalysisResult()
        for filename in sorted(_collect_files(paths)):
            try:
                source = Path(filename).read_text(encoding="utf-8")
            except OSError as exc:
                merged.parse_errors.append(f"{filename}: unreadable: {exc}")
                continue
            except UnicodeDecodeError as exc:
                merged.parse_errors.append(
                    f"{normalize_path(filename)}:0: not valid UTF-8: "
                    f"{exc.reason} at byte {exc.start}")
                continue
            single = self.analyze_source(source, filename)
            merged.findings.extend(single.findings)
            merged.suppressed += single.suppressed
            merged.files_analyzed += single.files_analyzed
            merged.parse_errors.extend(single.parse_errors)
        merged.findings.sort(
            key=lambda f: (f.path, f.line, f.column, f.rule_id))
        return merged


def _collect_files(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(str(p) for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            files.append(str(path))
    return files


def finalize_findings(raw: List[Finding],
                      silenced_by_path: Dict[str, Dict[int, Set[str]]],
                      result: AnalysisResult) -> None:
    """Sort ``raw`` and split it into ``result``'s findings and its
    suppressed count.

    Both the per-file engine and the whole-program dataflow driver end
    here, so SPDR006–008 findings are suppressed exactly like the AST
    rules' findings.
    """
    for finding in sorted(raw, key=lambda f: (f.path, f.line, f.column,
                                              f.rule_id)):
        if is_suppressed(finding, silenced_by_path.get(finding.path, {})):
            result.suppressed += 1
        else:
            result.findings.append(finding)


# ----------------------------------------------------------------------
# Shared AST helpers used by several rules


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    return dotted_name(node.func)


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute/Subscript/Call chain."""
    if isinstance(node, ast.Subscript):
        return terminal_name(node.value)
    if isinstance(node, ast.Call):
        return terminal_name(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None
