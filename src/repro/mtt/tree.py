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

Because M(P, ε) is unique, a tree can follow a routing table instead of
being rebuilt from it: :meth:`Mtt.insert`, :meth:`Mtt.remove` and
:meth:`Mtt.set_bits` edit a tree in place and each leaves exactly the
tree :meth:`Mtt.build` gives for the edited entries — same nodes, same
child order, hence the same CSPRNG draw order and the same root under
the same seed (property-tested node for node).  ``build`` itself is the
empty tree plus one ``insert`` per prefix, so there is one construction
path.  The recorder keeps one tree for its lifetime and applies each
commitment round's diff to it (:mod:`repro.spider.recorder`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..bgp.prefix import Prefix
from ..obs.registry import get_registry
from .nodes import BitNode, DummyNode, EDGE_END, InnerNode, MttNode, \
    PrefixNode, validate_structure


class FlatSchedule:
    """Flattened traversal orders for one MTT shape (the §5.3 hot path).

    Labeling needs two orders over the tree; the schedule computes both
    in one walk, so randomness assignment and Merkle labeling become
    tight loops over preflattened tuples with no isinstance dispatch
    (see :mod:`repro.mtt.labeling`).  A schedule describes a *shape*:
    it holds node objects and their child lists, not bit values, so it
    stays valid while the tree's bits are rewritten
    (:meth:`Mtt.set_bits`) and is dropped by the tree when a prefix
    appears or vanishes.  The recorder's tree keeps its schedule across
    every round whose diff leaves the prefix set alone; a
    reconstruction's tree is labeled once and releases it.  It holds
    only what the serial kernel reads; the worker pool derives its slot
    program from it on install (:mod:`repro.mtt.pool`).

    Every field is a few flat tuples over objects the tree already
    owns — building a schedule allocates nothing per node, which is
    what keeps a shape-changing round close to a bits-only one (and
    the cyclic collector out of it).

    * ``rand_plan`` — ``(nodes, attributes)``: every dummy and bit node,
      in exactly the depth-first order the original recursive
      assignment visited them (0, 1, E child order; bit nodes in class
      order), and beside each the attribute its draw lands in (a
      dummy's ``label``, a bit node's ``blinding``), so assignment is
      one C-level ``setattr`` sweep.  The CSPRNG stream is consumed in
      this order, so it must never change: proof generators rebuild
      past blindings from the stored seed by replaying it (Section
      6.5).
    * ``bit_nodes`` — all bit nodes.
    * ``interiors`` — ``(nodes, children)``: every prefix and inner
      node, children always before parents, so one forward pass
      computes every Merkle label, and beside each the node's own child
      list (``bit_nodes`` / ``children``, shared, not copied).  The
      order is the reverse of the same depth-first walk: a node
      precedes its whole subtree there, so it follows it here.
    * ``counts`` — the node census.
    """

    __slots__ = ("rand_plan", "bit_nodes", "interiors", "counts")

    def __init__(self, root: MttNode):
        rand_nodes: List[MttNode] = []
        rand_attributes: List[str] = []
        bit_nodes: List[BitNode] = []
        interior_nodes: List[MttNode] = []
        interior_children: List[Sequence[Optional[MttNode]]] = []
        stack: List[MttNode] = [root]
        prefix = 0
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is DummyNode:
                rand_nodes.append(node)
                rand_attributes.append("label")
            elif kind is PrefixNode:
                # Leaves, consecutive in the walk: taken whole, so most
                # nodes of a tree never touch the stack.
                prefix += 1
                bit_nodes.extend(node.bit_nodes)
                rand_nodes.extend(node.bit_nodes)
                rand_attributes.extend(
                    repeat("blinding", len(node.bit_nodes)))
                interior_nodes.append(node)
                interior_children.append(node.bit_nodes)
            else:
                interior_nodes.append(node)
                interior_children.append(node.children)
                stack.extend(reversed(node.children))
        self.rand_plan = (tuple(rand_nodes), tuple(rand_attributes))
        self.bit_nodes = tuple(reversed(bit_nodes))
        self.interiors = (tuple(reversed(interior_nodes)),
                          tuple(reversed(interior_children)))
        self.counts = NodeCensus(inner=len(interior_nodes) - prefix,
                                 prefix=prefix, bit=len(bit_nodes),
                                 dummy=len(rand_nodes) - len(bit_nodes))


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

    ``Mtt()`` is the empty tree (a lone dummy root); :meth:`build`
    makes the tree of a whole table and :meth:`insert`, :meth:`remove`
    and :meth:`set_bits` make one follow a table as it changes.  The
    tree is unlabeled until :mod:`repro.mtt.labeling` assigns
    randomness and computes the Merkle labels; :mod:`repro.mtt.proofs`
    generates and checks bit proofs against the labeled tree.
    """

    def __init__(self) -> None:
        self.root: MttNode = DummyNode(label=None)
        self._prefix_nodes: Dict[Prefix, PrefixNode] = {}
        self._schedule: Optional[FlatSchedule] = None
        self._census: Optional[NodeCensus] = None
        #: Bumped by every edit.  Whatever is derived from this tree's
        #: bits or shape and kept across rounds — the pool's installed
        #: program — is current only for the version it was derived at.
        self.version = 0

    # ------------------------------------------------------------------
    # Construction and in-place edits

    @classmethod
    def build(cls, entries: Mapping[Prefix, Sequence[int]]) -> "Mtt":
        """Build the minimal MTT for ``entries`` (prefix → input bits).

        Bit values are the VPref input bits for that prefix, one per
        indifference class, as computed by
        :func:`repro.core.bits.compute_bits`.
        """
        tree = cls()
        for prefix, bits in entries.items():
            tree.insert(prefix, bits)
        return tree

    def insert(self, prefix: Prefix, bits: Sequence[int]) -> None:
        """Add ``prefix`` with its input bits.

        The dummy where the prefix's path leaves the existing tree
        becomes the chain of inner nodes the path still needs — two
        fresh dummies beside each — ending in the inner node whose E
        child is the new prefix node.  In the empty tree that dummy is
        the root.
        """
        if prefix in self._prefix_nodes:
            raise ValueError(f"duplicate prefix {prefix}")
        prefix_node = PrefixNode(prefix, _bit_nodes(prefix, bits))
        path = prefix.bits()
        node = self.root
        if not isinstance(node, InnerNode):
            self.root = _chain(path, prefix_node)
        else:
            depth = 0
            while depth < len(path):
                child = node.children[path[depth]]
                if not isinstance(child, InnerNode):
                    node.children[path[depth]] = _chain(
                        path[depth + 1:], prefix_node)
                    break
                node = child
                depth += 1
            else:
                node.children[EDGE_END] = prefix_node
        self._prefix_nodes[prefix] = prefix_node
        self._shape_changed()

    def remove(self, prefix: Prefix) -> None:
        """Take ``prefix`` out: its E slot goes back to a dummy, and so
        does every inner node this leaves with three dummy children —
        an inner node of M(P, ε) lies on the path of some p ∈ P — up to
        the lone dummy root of the empty tree."""
        path = self.path_to(prefix)
        if path is None:
            raise KeyError(prefix)
        del self._prefix_nodes[prefix]
        bits = prefix.bits()
        depth = len(bits)
        path[depth].children[EDGE_END] = DummyNode(label=None)
        while all(type(c) is DummyNode for c in path[depth].children):
            if depth == 0:
                self.root = DummyNode(label=None)
                break
            depth -= 1
            path[depth].children[bits[depth]] = DummyNode(label=None)
        self._shape_changed()

    def set_bits(self, prefix: Prefix, bits: Sequence[int]) -> None:
        """Replace the input bits of a prefix already in the tree.

        With the same number of classes the bit nodes are rewritten
        where they are and the schedule stays valid; another k gives
        the prefix node new bit nodes, which is a new shape.
        """
        node = self._prefix_nodes.get(prefix)
        if node is None:
            raise KeyError(prefix)
        if len(bits) != len(node.bit_nodes):
            node.bit_nodes = _bit_nodes(prefix, bits)
            self._shape_changed()
            return
        for bit in bits:
            if bit not in (0, 1):
                raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        for bit_node, bit in zip(node.bit_nodes, bits):
            bit_node.bit = bit
        self.version += 1

    def _shape_changed(self) -> None:
        self._schedule = None
        self._census = None
        self.version += 1

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

        Built on first use and kept until the shape changes: rewriting
        bits keeps it, inserting or removing a prefix drops it and the
        next labeling builds one from the edited tree
        (``mtt_schedule_builds_total`` counts the builds).
        """
        if self._schedule is None:
            self._schedule = FlatSchedule(self.root)
            self._census = self._schedule.counts
            get_registry().counter("mtt_schedule_builds_total").inc()
        return self._schedule

    def release_schedule(self) -> None:
        """Let go of the schedule when no further labeling is coming;
        the census stays."""
        self._schedule = None

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
        if self._census is None:
            self.schedule()
        assert self._census is not None
        return self._census

    def validate(self) -> None:
        validate_structure(self.root)


def _bit_nodes(prefix: Prefix, bits: Sequence[int]) -> List[BitNode]:
    if not bits:
        raise ValueError(f"no bits supplied for {prefix}")
    return [BitNode(class_index=i, bit=b, blinding=None)
            for i, b in enumerate(bits)]


def _chain(path: Sequence[int], prefix_node: PrefixNode) -> InnerNode:
    """The inner nodes along ``path`` with ``prefix_node`` at the end
    of it and a dummy in every other child slot."""
    node = InnerNode([DummyNode(label=None), DummyNode(label=None),
                      prefix_node])
    for bit in reversed(path):
        children: List[Optional[MttNode]] = [DummyNode(label=None),
                                             DummyNode(label=None)]
        children.insert(bit, node)
        node = InnerNode(children)
    return node
