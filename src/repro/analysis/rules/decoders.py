"""SPDR003 — decoders fail closed, with ValueError/CodecError only.

PR 3 fixed ``Route.from_bytes`` raising ``IndexError`` on truncated
input; this rule keeps the whole class of bug out.  In wire modules,
every decode-shaped function (``from_bytes``, ``decode*``, ``_read*``)
must not index or slice a bytes-like parameter unless the function
bounds-checks it (a ``len(<param>)`` expression somewhere in the body,
or the access sits inside a ``try`` that catches ``IndexError``), and
``struct.unpack`` may only appear inside a ``try`` that translates
``struct.error``.  Violations surface as the decoder leaking
``IndexError``/``struct.error`` to callers that are contractually owed
``ValueError``/``CodecError``.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Set, Tuple

from ..engine import Rule, RuleContext, call_name

RULE_ID = "SPDR003"

SCOPE: Tuple[str, ...] = (
    "repro/bgp/",
    "repro/core/wire.py",
    "repro/core/commitment.py",
    "repro/mtt/proofs.py",
    "repro/spider/wire.py",
    "repro/spider/codec.py",
    "repro/spider/log.py",
    "repro/runtime/framing.py",
    "repro/store/",
)

_DECODE_PREFIXES: Tuple[str, ...] = ("decode", "_decode", "read_",
                                     "_read")

#: Parameter names treated as raw-bytes input even without annotation.
_BYTESY_NAMES = frozenset({"data", "buf", "buffer", "payload", "raw",
                           "encoded", "blob", "wire"})

_CAUGHT_OK_INDEX = frozenset({"IndexError", "Exception", "LookupError"})
_CAUGHT_OK_STRUCT = frozenset({"error", "struct.error", "Exception"})


def _is_decode_function(name: str) -> bool:
    return name == "from_bytes" or name.startswith(_DECODE_PREFIXES)


def _bytes_params(func: ast.FunctionDef) -> Set[str]:
    params: Set[str] = set()
    for arg in list(func.args.posonlyargs) + list(func.args.args) + \
            list(func.args.kwonlyargs):
        annotation = arg.annotation
        annotated_bytes = isinstance(annotation, ast.Name) and \
            annotation.id in ("bytes", "bytearray", "memoryview")
        if annotated_bytes or arg.arg in _BYTESY_NAMES:
            params.add(arg.arg)
    return params


def _handler_catches(handler: ast.ExceptHandler,
                     acceptable: FrozenSet[str]) -> bool:
    if handler.type is None:
        return True  # bare except swallows everything
    types: List[ast.expr] = []
    if isinstance(handler.type, ast.Tuple):
        types = list(handler.type.elts)
    else:
        types = [handler.type]
    for node in types:
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        if name in acceptable:
            return True
    return False


class DecoderDisciplineRule(Rule):
    rule_id = RULE_ID
    title = "decoders bounds-check and never leak IndexError/struct.error"

    def applies_to(self, path: str) -> bool:
        return path.startswith(SCOPE)

    def check(self, ctx: RuleContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef) and \
                    _is_decode_function(node.name):
                self._check_function(ctx, node)

    def _check_function(self, ctx: RuleContext,
                        func: ast.FunctionDef) -> None:
        params = _bytes_params(func)
        guarded = self._guarded_params(func)
        protected_index = self._nodes_under_try(func, _CAUGHT_OK_INDEX)
        protected_struct = self._nodes_under_try(func, _CAUGHT_OK_STRUCT)
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in params and \
                    node.value.id not in guarded and \
                    id(node) not in protected_index:
                ctx.report(
                    self.rule_id, node,
                    f"decoder {func.name!r} indexes parameter "
                    f"{node.value.id!r} without a len() bounds check; "
                    "truncated input will raise IndexError instead of "
                    "ValueError/CodecError")
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in ("struct.unpack", "struct.unpack_from") and \
                        id(node) not in protected_struct:
                    ctx.report(
                        self.rule_id, node,
                        f"decoder {func.name!r} calls {name} outside a "
                        "try/except struct.error; short input will leak "
                        "struct.error")

    @staticmethod
    def _guarded_params(func: ast.FunctionDef) -> Set[str]:
        """Parameters whose length the function inspects somewhere."""
        guarded: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "len" and node.args and \
                    isinstance(node.args[0], ast.Name):
                guarded.add(node.args[0].id)
        return guarded

    @staticmethod
    def _nodes_under_try(func: ast.FunctionDef,
                         acceptable: FrozenSet[str]) -> Set[int]:
        """ids of nodes inside a try whose handlers catch acceptably."""
        protected: Set[int] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Try):
                continue
            if not any(_handler_catches(h, acceptable)
                       for h in node.handlers):
                continue
            for stmt in node.body:
                for inner in ast.walk(stmt):
                    protected.add(id(inner))
        return protected
