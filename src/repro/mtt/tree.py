"""Construction of the minimal modified ternary tree (Section 5.2).

For a prefix set P and a function ε mapping each prefix to its
indifference-class bits, there is a unique minimal MTT M(P, ε): one inner
node for every bit-path that is a (possibly empty) proper prefix of some
p ∈ P — including the path of p itself, whose E child is p's prefix node —
with every unused child slot filled by a dummy node, one prefix node per
p ∈ P, and one bit node per class of ε(p).

The node counts of this construction reproduce the paper's §7.3 census
identity exactly: 3·inner = (inner − 1) + prefix + dummy (every child
slot of every inner node is an inner node, a prefix node, or a dummy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..bgp.prefix import Prefix
from .nodes import BitNode, DummyNode, EDGE_END, EDGES, InnerNode, \
    MttNode, PrefixNode, validate_structure

class FlatSchedule:
    """Flattened traversal orders for one MTT shape (the §5.3 hot path).

    Labeling needs two DFS orders over the tree; the schedule computes
    both once, so randomness assignment and Merkle labeling become
    tight loops over preflattened tuples with no isinstance dispatch
    (see :mod:`repro.mtt.labeling`).  The recorder and the proof
    generator build a new tree, and therefore a new schedule, for every
    commitment and every reconstruction, so the schedule holds only
    what the serial kernel reads; the worker pool derives its slot
    program from it on install (:mod:`repro.mtt.pool`).

    * ``rand_plan`` — ``(node, is_dummy)`` pairs for every dummy and bit
      node, in exactly the depth-first order the original recursive
      assignment visited them.  The CSPRNG stream is consumed in this
      order, so it must never change: proof generators rebuild past
      blindings from the stored seed by replaying it (Section 6.5).
    * ``bit_nodes`` — all bit nodes, in post-order.
    * ``interiors`` — ``(node, children)`` pairs for every prefix and
      inner node in post-order: children always precede parents, so one
      forward pass computes every Merkle label.
    * ``counts`` — the node census.
    """

    __slots__ = ("rand_plan", "bit_nodes", "interiors", "counts")

    def __init__(self, root: MttNode):
        # Pass 1 — preorder DFS, identical to the original recursive
        # randomness assignment (0, 1, E child order; bit nodes in class
        # order).  This fixes the CSPRNG draw order.
        rand_plan: List[Tuple[MttNode, bool]] = []
        stack: List[MttNode] = [root]
        inner = prefix = 0
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is DummyNode:
                rand_plan.append((node, True))
            elif kind is BitNode:
                rand_plan.append((node, False))
            elif kind is PrefixNode:
                prefix += 1
                stack.extend(reversed(node.bit_nodes))
            else:
                inner += 1
                stack.extend(reversed([c for c in node.children
                                       if c is not None]))
        self.rand_plan = tuple(rand_plan)

        # Pass 2 — post-order: children before parents, so labels can
        # be computed in one forward sweep.
        bit_nodes: List[BitNode] = []
        interiors: List[Tuple[MttNode, Tuple[MttNode, ...]]] = []
        work: List[Tuple[MttNode, Optional[Tuple[MttNode, ...]]]] = \
            [(root, None)]
        while work:
            node, children = work.pop()
            kind = type(node)
            if kind is DummyNode:
                continue
            if kind is BitNode:
                bit_nodes.append(node)
                continue
            if children is not None:
                interiors.append((node, children))
                continue
            if kind is PrefixNode:
                kids: Tuple[MttNode, ...] = tuple(node.bit_nodes)
            else:
                kids = tuple(c for c in node.children if c is not None)
            work.append((node, kids))
            work.extend((c, None) for c in kids)
        self.bit_nodes = tuple(bit_nodes)
        self.interiors = tuple(interiors)
        self.counts = NodeCensus(inner=inner, prefix=prefix,
                                 bit=len(bit_nodes),
                                 dummy=len(rand_plan) - len(bit_nodes))


@dataclass(frozen=True)
class NodeCensus:
    """Node counts per type (the §7.3 'MTT size' microbenchmark)."""

    inner: int
    prefix: int
    bit: int
    dummy: int

    @property
    def total(self) -> int:
        return self.inner + self.prefix + self.bit + self.dummy

    def estimated_bytes(self) -> int:
        """Struct-level memory model, mirroring a compact C++ layout.

        inner: 3 child pointers (24 B); prefix: pointer + small header
        (16 B); bit: bit + cached label slot (4 B); dummy: label slot
        reference (4 B).  The paper's 22.3M-node MTT at 137.5 MB implies
        ≈6.2 B/node, dominated by bit nodes — this model lands in the
        same regime.
        """
        return (self.inner * 24 + self.prefix * 16 + self.bit * 4
                + self.dummy * 4)


class Mtt:
    """A modified ternary tree over a set of prefixes.

    Build with :meth:`build`; the result is unlabeled (no blinding values
    or hashes).  :mod:`repro.mtt.labeling` assigns randomness and computes
    the Merkle labels; :mod:`repro.mtt.proofs` generates and checks bit
    proofs against the labeled tree.
    """

    def __init__(self, root: MttNode,
                 prefix_nodes: Dict[Prefix, PrefixNode]):
        self.root = root
        self._prefix_nodes = prefix_nodes
        self._schedule: Optional[FlatSchedule] = None

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def build(cls, entries: Mapping[Prefix, Sequence[int]]) -> "Mtt":
        """Build the minimal MTT for ``entries`` (prefix → input bits).

        Bit values are the VPref input bits for that prefix, one per
        indifference class, as computed by
        :func:`repro.core.bits.compute_bits`.
        """
        if not entries:
            return cls(root=DummyNode(label=None),
                       prefix_nodes={})
        root = InnerNode()
        prefix_nodes: Dict[Prefix, PrefixNode] = {}
        for prefix in sorted(entries):
            bits = entries[prefix]
            if not bits:
                raise ValueError(f"no bits supplied for {prefix}")
            node = root
            for bit in prefix.bits():
                child = node.children[bit]
                if child is None:
                    child = InnerNode()
                    node.children[bit] = child
                elif not isinstance(child, InnerNode):
                    raise ValueError("construction order violated")
                node = child
            if node.children[EDGE_END] is not None:
                raise ValueError(f"duplicate prefix {prefix}")
            bit_nodes = [BitNode(class_index=i, bit=b, blinding=None)
                         for i, b in enumerate(bits)]
            prefix_node = PrefixNode(prefix=prefix, bit_nodes=bit_nodes)
            node.children[EDGE_END] = prefix_node
            prefix_nodes[prefix] = prefix_node
        _fill_dummies(root)
        return cls(root=root, prefix_nodes=prefix_nodes)

    # ------------------------------------------------------------------
    # Lookup

    @property
    def prefixes(self) -> Tuple[Prefix, ...]:
        return tuple(sorted(self._prefix_nodes))

    def prefix_node(self, prefix: Prefix) -> Optional[PrefixNode]:
        return self._prefix_nodes.get(prefix)

    def bits_for(self, prefix: Prefix) -> Optional[Tuple[int, ...]]:
        node = self._prefix_nodes.get(prefix)
        if node is None:
            return None
        return tuple(b.bit for b in node.bit_nodes)

    def path_to(self, prefix: Prefix) -> Optional[List[InnerNode]]:
        """Inner nodes from the root down to (and including) the node
        whose E child is the prefix node; None if absent."""
        if prefix not in self._prefix_nodes:
            return None
        if not isinstance(self.root, InnerNode):
            return None
        path = [self.root]
        node = self.root
        for bit in prefix.bits():
            node = node.children[bit]
            path.append(node)
        return path

    # ------------------------------------------------------------------
    # Introspection

    def schedule(self) -> FlatSchedule:
        """The cached flattened labeling schedule for this tree shape.

        Built lazily on first use and reused for every subsequent
        commitment round; the shape of a built tree never changes, only
        the randomness does.
        """
        if self._schedule is None:
            self._schedule = FlatSchedule(self.root)
        return self._schedule

    def iter_nodes(self) -> Iterator[MttNode]:
        stack: List[MttNode] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, InnerNode):
                stack.extend(c for c in node.children if c is not None)
            elif isinstance(node, PrefixNode):
                stack.extend(node.bit_nodes)

    def census(self) -> NodeCensus:
        return self.schedule().counts

    def validate(self) -> None:
        validate_structure(self.root)


def _fill_dummies(node: InnerNode) -> None:
    """Fill every empty child slot with a dummy node, recursively."""
    for edge in EDGES:
        child = node.children[edge]
        if child is None:
            node.children[edge] = DummyNode(label=None)
        elif isinstance(child, InnerNode):
            _fill_dummies(child)
