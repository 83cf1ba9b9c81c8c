"""Whole-program module index and call-graph resolution.

The dataflow rules reason about *the program*, not one file at a time,
so this module parses every source file once into a :class:`Program`:
per-module import tables, every function/method definition with its
qualified name, and the docstring contract markers that feed
:mod:`repro.analysis.contracts`.

Call resolution is deliberately heuristic — this is Python — but the
heuristics are ranked and bounded so imprecision stays conservative:

1. ``f(...)`` resolves to a same-module function, else an imported one
   (``from m import f`` / ``import m as a; a.f``).
2. ``self.m(...)`` / ``cls.m(...)`` resolves within the enclosing
   class, falling back to same-named methods elsewhere.
3. ``recv.m(...)`` resolves to *every* method named ``m`` in the
   program, unless the name is so common (``append``, ``get``, …) or
   so widely defined that by-name matching would be noise; such calls
   stay unresolved and the taint engine propagates through them.
4. ``Class(...)``, and ``cls(...)`` inside one of the class's own
   methods, resolves to ``Class.__init__``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .engine import dotted_name, normalize_path

#: Method names too generic for by-name resolution (step 3 above).
_COMMON_METHODS = frozenset({
    "append", "extend", "add", "get", "pop", "items", "keys", "values",
    "update", "close", "read", "write", "send", "put", "join", "split",
    "copy", "clear", "sort", "index", "count", "encode", "decode",
    "setdefault", "remove", "insert", "open", "run", "start", "stop",
    "result", "submit", "now", "render",
})

#: Max same-named definitions before a by-name lookup is abandoned.
_MAX_CANDIDATES = 8

#: ``:spiderlint-contract: source(label) …`` docstring marker.
_MARKER_RE = re.compile(
    r":spiderlint-contract:\s*"
    r"(?P<kind>source|sink|declassifier)\s*\(\s*(?P<arg>[a-z0-9_\-]+)\s*\)")


@dataclass(frozen=True)
class DocMarker:
    """One ``:spiderlint-contract:`` marker found in a docstring."""

    kind: str   # "source" | "sink" | "declassifier"
    arg: str    # taint label (source/declassifier) or sink id
    qualname: str


@dataclass
class FunctionInfo:
    """One function or method definition in the program."""

    qualname: str          # "repro/mtt/tree.py::Mtt.build"
    name: str              # bare name, e.g. "build"
    cls: Optional[str]     # enclosing class name, if a method
    module: str            # normalized module path
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: Tuple[str, ...] = ()
    markers: Tuple[DocMarker, ...] = ()

    @property
    def display(self) -> str:
        if self.cls is not None:
            return f"{self.cls}.{self.name}"
        return self.name


@dataclass
class ModuleInfo:
    """One parsed source module."""

    path: str                               # normalized
    tree: ast.Module
    lines: List[str]
    #: local alias → dotted target ("Rc4Csprng" → "repro.crypto.rc4.Rc4Csprng")
    imports: Dict[str, str] = field(default_factory=dict)
    #: class name → method name → qualname
    classes: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: module-level function name → qualname
    functions: Dict[str, str] = field(default_factory=dict)


@dataclass
class Program:
    """The whole analyzed source tree."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: bare function/method name → qualnames defining it
    by_name: Dict[str, List[str]] = field(default_factory=dict)
    parse_errors: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def from_sources(cls, sources: Iterable[Tuple[str, str]]) -> "Program":
        """Build from ``(path, source_text)`` pairs."""
        program = cls()
        for path, text in sources:
            module_path = normalize_path(path)
            try:
                tree = ast.parse(text, filename=module_path)
            except (SyntaxError, ValueError) as exc:
                lineno = getattr(exc, "lineno", 0) or 0
                program.parse_errors.append(
                    f"{module_path}:{lineno}: parse error: {exc}")
                continue
            program._index_module(module_path, tree, text.splitlines())
        return program

    def _index_module(self, path: str, tree: ast.Module,
                      lines: List[str]) -> None:
        info = ModuleInfo(path=path, tree=tree, lines=lines)
        self.modules[path] = info
        for node in tree.body:
            self._index_stmt(node, info, cls=None)

    def _index_stmt(self, node: ast.stmt, info: ModuleInfo,
                    cls: Optional[str]) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    info.imports[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    info.imports[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = _absolute_base(node, info.path)
            for alias in node.names:
                local = alias.asname or alias.name
                info.imports[local] = f"{base}.{alias.name}" if base \
                    else alias.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._register_function(node, info, cls)
        elif isinstance(node, ast.ClassDef):
            info.classes.setdefault(node.name, {})
            for child in node.body:
                self._index_stmt(child, info, cls=node.name)

    def _register_function(self,
                           node: ast.FunctionDef | ast.AsyncFunctionDef,
                           info: ModuleInfo, cls: Optional[str]) -> None:
        display = f"{cls}.{node.name}" if cls else node.name
        qualname = f"{info.path}::{display}"
        params = tuple(arg.arg for arg in node.args.posonlyargs
                       ) + tuple(arg.arg for arg in node.args.args)
        markers = _doc_markers(node, qualname)
        fn = FunctionInfo(qualname=qualname, name=node.name, cls=cls,
                          module=info.path, node=node, params=params,
                          markers=markers)
        self.functions[qualname] = fn
        self.by_name.setdefault(node.name, []).append(qualname)
        if cls is None:
            info.functions[node.name] = qualname
        else:
            info.classes.setdefault(cls, {})[node.name] = qualname

    # ------------------------------------------------------------------
    # Queries

    def doc_markers(self) -> List[DocMarker]:
        """Every docstring contract marker in the program."""
        out: List[DocMarker] = []
        for fn in self.functions.values():
            out.extend(fn.markers)
        return out

    def resolve_call(self, call: ast.Call,
                     caller: FunctionInfo) -> List[FunctionInfo]:
        """Candidate callees for one call site (possibly empty)."""
        name = dotted_name(call.func)
        if name is None:
            return []
        parts = name.split(".")
        module = self.modules.get(caller.module)
        if module is None:
            return []
        if len(parts) == 1:
            if parts[0] == "cls" and caller.cls is not None:
                # cls(...) in a classmethod: the enclosing class.
                return self._constructor(module.path, caller.cls)
            return self._resolve_simple(parts[0], module)
        if parts[0] in ("self", "cls") and len(parts) == 2:
            return self._resolve_self(parts[1], caller, module)
        return self._resolve_dotted(parts, module)

    def _resolve_simple(self, name: str,
                        module: ModuleInfo) -> List[FunctionInfo]:
        qual = module.functions.get(name)
        if qual is not None:
            return [self.functions[qual]]
        if name in module.classes:
            return self._constructor(module.path, name)
        target = module.imports.get(name)
        if target is not None:
            return self._resolve_imported(target)
        return []

    def _resolve_self(self, method: str, caller: FunctionInfo,
                      module: ModuleInfo) -> List[FunctionInfo]:
        if caller.cls is not None:
            qual = module.classes.get(caller.cls, {}).get(method)
            if qual is not None:
                return [self.functions[qual]]
        return self._resolve_by_name(method, methods_only=True)

    def _resolve_dotted(self, parts: List[str],
                        module: ModuleInfo) -> List[FunctionInfo]:
        head, last = parts[0], parts[-1]
        # Class attribute access: Mtt.build(...), imported or local.
        if len(parts) == 2:
            if head in module.classes:
                qual = module.classes[head].get(last)
                return [self.functions[qual]] if qual else []
            target = module.imports.get(head)
            if target is not None:
                resolved = self._resolve_imported(f"{target}.{last}")
                if resolved:
                    return resolved
        # Module access through an import alias: alias.sub.f(...).
        target = module.imports.get(head)
        if target is not None:
            resolved = self._resolve_imported(
                ".".join([target] + parts[1:]))
            if resolved:
                return resolved
        # Fall back to by-name method matching for receiver.method().
        return self._resolve_by_name(last, methods_only=True)

    def _resolve_imported(self, dotted: str) -> List[FunctionInfo]:
        """Resolve a fully-dotted target like ``repro.crypto.rc4.Rc4``."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module_path = "/".join(parts[:split]) + ".py"
            module = self.modules.get(module_path)
            if module is None:
                continue
            rest = parts[split:]
            if len(rest) == 1:
                qual = module.functions.get(rest[0])
                if qual is not None:
                    return [self.functions[qual]]
                if rest[0] in module.classes:
                    return self._constructor(module.path, rest[0])
            elif len(rest) == 2 and rest[0] in module.classes:
                qual = module.classes[rest[0]].get(rest[1])
                if qual is not None:
                    return [self.functions[qual]]
        return []

    def _constructor(self, module_path: str,
                     cls: str) -> List[FunctionInfo]:
        module = self.modules[module_path]
        qual = module.classes.get(cls, {}).get("__init__")
        return [self.functions[qual]] if qual else []

    def _resolve_by_name(self, name: str,
                         methods_only: bool) -> List[FunctionInfo]:
        if name in _COMMON_METHODS or name.startswith("__"):
            return []
        quals = self.by_name.get(name, ())
        out = [self.functions[q] for q in quals
               if not methods_only or self.functions[q].cls is not None]
        if not out or len(out) > _MAX_CANDIDATES:
            return []
        return out


def _absolute_base(node: ast.ImportFrom, module_path: str) -> str:
    """Resolve a (possibly relative) import base to a dotted path.

    ``from ..crypto.rc4 import X`` inside ``repro/spider/recorder.py``
    resolves to ``repro.crypto.rc4``; absolute imports pass through.
    """
    if not node.level:
        return node.module or ""
    package = module_path.rsplit(".py", 1)[0].split("/")[:-1]
    if module_path.endswith("__init__.py"):
        package = module_path.split("/")[:-1]
    anchor = package[:len(package) - (node.level - 1)] \
        if node.level > 1 else package
    parts = list(anchor)
    if node.module:
        parts.extend(node.module.split("."))
    return ".".join(parts)


def _doc_markers(node: ast.FunctionDef | ast.AsyncFunctionDef,
                 qualname: str) -> Tuple[DocMarker, ...]:
    doc = ast.get_docstring(node, clean=False)
    if not doc or ":spiderlint-contract:" not in doc:
        return ()
    return tuple(
        DocMarker(kind=m.group("kind"), arg=m.group("arg"),
                  qualname=qualname)
        for m in _MARKER_RE.finditer(doc))


# ----------------------------------------------------------------------
# Loading and caching


def collect_sources(paths: Iterable[str]) -> List[Tuple[str, str]]:
    """Read every ``*.py`` under ``paths`` as (path, text) pairs.

    Unreadable or undecodable files are skipped here and re-surfaced by
    the per-file engine, which owns error reporting.
    """
    out: List[Tuple[str, str]] = []
    seen: set[str] = set()
    for entry in paths:
        path = Path(entry)
        files: List[Path]
        if path.is_dir():
            files = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            files = [path]
        else:
            files = []
        for file in files:
            key = str(file)
            if key in seen:
                continue
            seen.add(key)
            try:
                out.append((key, file.read_text(encoding="utf-8")))
            except (OSError, UnicodeDecodeError):
                continue
    return out


def load_program(paths: Iterable[str]) -> Program:
    """Build the Program for a set of paths."""
    return Program.from_sources(collect_sources(paths))
