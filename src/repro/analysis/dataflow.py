"""Generic forward dataflow solving over :mod:`repro.analysis.cfg`.

The solver is a textbook worklist fixpoint: block input = join of
predecessor outputs, block output = transfer(block, input), iterate
until nothing changes.  Clients supply the lattice as three callables
(bottom, join, equality) plus a per-block transfer function, which
keeps this module independent of any particular analysis — the taint
engine (SPDR006/008) and the shared-memory lifecycle rule (SPDR007)
both run on it with different state shapes.

States must be treated as immutable by transfer functions (return a
new state, never mutate the input); join must be commutative,
associative, and monotone, and the lattice must have finite height for
termination.  Both client lattices here are powerset-like maps from
variable names to finite fact sets, which satisfies all of that.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, TypeVar

from .cfg import Block, Cfg

S = TypeVar("S")

#: A transfer function: new state after executing one block.
Transfer = Callable[[Block, S], S]

#: Full sweeps before :meth:`ForwardSolver.solve` gives up.  A safety
#: net: the deepest function in src, benchmarks and examples converges
#: in five.
MAX_PASSES = 50


class ForwardSolver(Generic[S]):
    """Worklist fixpoint over one CFG."""

    def __init__(self, join: Callable[[S, S], S],
                 equals: Callable[[S, S], bool]) -> None:
        self._join = join
        self._equals = equals

    def solve(self, cfg: Cfg, transfer: Transfer[S],
              init: S, bottom: S) -> Dict[int, S]:
        """Return the input state of every block at fixpoint.

        ``init`` seeds the entry block; ``bottom`` is the identity of
        the join (states of blocks not yet reached).  Hitting
        :data:`MAX_PASSES` merely under-approximates further growth
        (the analysis stays sound for the facts already accumulated).
        """
        preds = cfg.preds()
        order = cfg.rpo()
        inputs: Dict[int, S] = {bid: bottom for bid in cfg.blocks}
        outputs: Dict[int, S] = {bid: bottom for bid in cfg.blocks}
        inputs[cfg.entry] = init
        for _ in range(MAX_PASSES):
            changed = False
            for bid in order:
                state = init if bid == cfg.entry else bottom
                for pred in preds[bid]:
                    state = self._join(state, outputs[pred])
                if not self._equals(state, inputs[bid]):
                    inputs[bid] = state
                    changed = True
                out = transfer(cfg.blocks[bid], state)
                if not self._equals(out, outputs[bid]):
                    outputs[bid] = out
                    changed = True
            if not changed:
                break
        return inputs


# ----------------------------------------------------------------------
# The map-of-fact-sets lattice SPDR007 uses (the taint engine's states
# map variables to traced taints and bring their own join).


def env_join(a: Dict[str, frozenset], b: Dict[str, frozenset]
             ) -> Dict[str, frozenset]:  # type: ignore[type-arg]
    """Key-wise union of two variable→facts maps."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for key, facts in b.items():
        existing = out.get(key)
        out[key] = facts if existing is None else existing | facts
    return out


def env_equals(a: Dict[str, frozenset], b: Dict[str, frozenset]
               ) -> bool:  # type: ignore[type-arg]
    return a == b
