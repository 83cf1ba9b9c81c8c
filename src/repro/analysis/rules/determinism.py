"""SPDR001 — deterministic paths stay deterministic.

SPIDeR's evidence logs must be byte-identical across transports and
replays, and its commitments must be reproducible from a seed.  Both
properties die the moment a "deterministic" module reads the ambient
wall clock or the process entropy pool, or iterates a bare ``set``
(whose order is salted per process) while building wire bytes or MTT
structure.  Entropy and wall-clock access are confined to the modules
that *own* them; everyone else receives seeds and clocks as arguments.
"""

from __future__ import annotations

import ast
from typing import Optional, Tuple

from ..engine import Rule, RuleContext, call_name

RULE_ID = "SPDR001"

#: Modules allowed to touch ambient entropy / the wall clock: the RSA
#: keygen (real keys need real entropy) and the clock implementations
#: that exist to wrap the system clock.
ENTROPY_OWNERS: Tuple[str, ...] = (
    "repro/crypto/rsa.py",
    "repro/runtime/node_runtime.py",
    "repro/netsim/clock.py",
)

#: Wire/codec/MTT modules where set iteration order would leak into
#: bytes or tree structure.
ORDER_SENSITIVE: Tuple[str, ...] = (
    "repro/mtt/",
    "repro/bgp/",
    "repro/core/wire.py",
    "repro/core/commitment.py",
    "repro/spider/wire.py",
    "repro/spider/codec.py",
    "repro/runtime/framing.py",
)

#: Module-level ``random.*`` helpers that consume the shared global RNG.
_AMBIENT_RANDOM = frozenset({
    "random.random", "random.randint", "random.randrange",
    "random.choice", "random.choices", "random.shuffle",
    "random.sample", "random.uniform", "random.getrandbits",
    "random.randbytes", "random.gauss",
})


class DeterminismRule(Rule):
    rule_id = RULE_ID
    title = "no ambient entropy/wall-clock; no bare-set iteration"

    def applies_to(self, path: str) -> bool:
        return path.endswith(".py")

    def check(self, ctx: RuleContext) -> None:
        exempt = ctx.path in ENTROPY_OWNERS
        order_sensitive = ctx.path.startswith(ORDER_SENSITIVE)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and not exempt:
                self._check_call(ctx, node)
            if order_sensitive:
                self._check_set_iteration(ctx, node)

    def _check_call(self, ctx: RuleContext, node: ast.Call) -> None:
        name = call_name(node)
        if name is None:
            return
        if name == "time.time":
            ctx.report(self.rule_id, node,
                       "ambient wall-clock read (time.time()); take a "
                       "clock object as an argument instead")
        elif name in ("random.Random", "Random") and not node.args \
                and not node.keywords:
            ctx.report(self.rule_id, node,
                       "unseeded random.Random(); pass an explicit seed")
        elif name in ("os.urandom", "urandom"):
            ctx.report(self.rule_id, node,
                       "os.urandom() outside an entropy-owning module")
        elif name in _AMBIENT_RANDOM:
            ctx.report(self.rule_id, node,
                       f"{name}() uses the shared global RNG; use a "
                       "seeded random.Random instance")
        elif name.startswith("secrets."):
            ctx.report(self.rule_id, node,
                       f"{name}() outside an entropy-owning module")

    def _check_set_iteration(self, ctx: RuleContext,
                             node: ast.AST) -> None:
        iterable: Optional[ast.AST] = None
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterable = node.iter
        elif isinstance(node, ast.comprehension):
            iterable = node.iter
        if iterable is None:
            return
        if self._is_bare_set(iterable):
            ctx.report(self.rule_id, iterable,
                       "iteration over a bare set in wire/codec/MTT "
                       "code; iterate sorted(...) for a stable order")

    @staticmethod
    def _is_bare_set(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = call_name(node)
            return name in ("set", "frozenset")
        return False
