"""Node types of the modified ternary tree (Section 5.2).

An MTT has four node types:

* **inner nodes** — exactly three children, on edges labeled 0, 1, and E
  ('end of prefix');
* **prefix nodes** — reached by an E edge (or by a 0/1 edge when the
  paper's figure places them directly); hold one bit node per
  indifference class;
* **bit nodes** — leaves carrying one VPref input bit and its blinding;
* **dummy nodes** — leaves carrying a random label, filling unused child
  slots so that siblings reveal nothing about which subtrees exist.

Nodes use ``__slots__``: a realistic MTT has millions of nodes and the
node census / memory-estimate experiment (E3) depends on them being
cheap.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..bgp.prefix import Prefix

#: Child slots of an inner node, in hashing order.
EDGE_ZERO, EDGE_ONE, EDGE_END = 0, 1, 2
EDGES = (EDGE_ZERO, EDGE_ONE, EDGE_END)


class BitNode:
    """Leaf carrying one input bit ``b`` and its blinding ``x``."""

    __slots__ = ("class_index", "bit", "blinding", "label")

    def __init__(self, class_index: int, bit: int, blinding: bytes):
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self.class_index = class_index
        self.bit = bit
        self.blinding = blinding
        self.label: Optional[bytes] = None

    def __repr__(self) -> str:
        return f"BitNode(class={self.class_index}, bit={self.bit})"


class DummyNode:
    """Leaf labeled with a random bitstring, indistinguishable from a
    real subtree label."""

    __slots__ = ("label",)

    def __init__(self, label: bytes):
        self.label = label

    def __repr__(self) -> str:
        return "DummyNode()"


class PrefixNode:
    """The node for one IP prefix; its children are the k bit nodes."""

    __slots__ = ("prefix", "bit_nodes", "label")

    def __init__(self, prefix: Prefix, bit_nodes: List[BitNode]):
        if not bit_nodes:
            raise ValueError("a prefix node needs at least one bit node")
        self.prefix = prefix
        self.bit_nodes = bit_nodes
        self.label: Optional[bytes] = None

    def __repr__(self) -> str:
        return f"PrefixNode({self.prefix}, k={len(self.bit_nodes)})"


class InnerNode:
    """Branch node with exactly three child slots (0, 1, E)."""

    __slots__ = ("children", "label")

    def __init__(self,
                 children: Optional[List[Optional[MttNode]]] = None):
        self.children: List[Optional[MttNode]] = \
            [None, None, None] if children is None else children
        self.label: Optional[bytes] = None

    @property
    def zero(self) -> Optional["MttNode"]:
        return self.children[EDGE_ZERO]

    @property
    def one(self) -> Optional["MttNode"]:
        return self.children[EDGE_ONE]

    @property
    def end(self) -> Optional["MttNode"]:
        return self.children[EDGE_END]

    def __repr__(self) -> str:
        kinds = [type(c).__name__ if c is not None else "-"
                 for c in self.children]
        return f"InnerNode({'/'.join(kinds)})"


MttNode = Union[InnerNode, PrefixNode, BitNode, DummyNode]


def validate_structure(node: MttNode, depth: int = 0) -> None:
    """Check the structural invariants of Section 5.2 (recursively).

    * inner nodes have all three child slots filled;
    * the E child is a prefix node or a dummy node (never inner);
    * 0/1 children are inner, prefix, or dummy nodes;
    * bit nodes appear only under prefix nodes;
    * the tree is no deeper than 32 branch levels: an inner node sits
      below at most 32 bit edges (a /32's prefix node hangs off one
      that sits below exactly 32).
    """
    if isinstance(node, InnerNode):
        if depth > 32:
            raise ValueError("MTT deeper than 32 branch levels")
        for edge in EDGES:
            child = node.children[edge]
            if child is None:
                raise ValueError("inner node with an empty child slot")
            if isinstance(child, BitNode):
                raise ValueError("bit node directly under an inner node")
            if edge == EDGE_END and isinstance(child, InnerNode):
                raise ValueError("E edge must not lead to an inner node")
            validate_structure(child, depth + 1)
    elif isinstance(node, PrefixNode):
        for bit_node in node.bit_nodes:
            if not isinstance(bit_node, BitNode):
                raise ValueError("prefix node child is not a bit node")
    elif not isinstance(node, (BitNode, DummyNode)):
        raise TypeError(f"unknown node type {type(node).__name__}")
