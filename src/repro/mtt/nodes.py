"""Node types of the modified ternary tree (Section 5.2).

An MTT has four node types:

* **inner nodes** — exactly three children, on edges labeled 0, 1, and E
  ('end of prefix');
* **prefix nodes** — reached by an E edge (or by a 0/1 edge when the
  paper's figure places them directly); hold the k VPref input bits,
  one tuple, and one bit node per indifference class;
* **bit nodes** — leaves carrying one blinding and its bit's label;
* **dummy nodes** — leaves carrying a random label, filling unused child
  slots so that siblings reveal nothing about which subtrees exist.

Nodes use ``__slots__``: a realistic MTT has millions of nodes and the
node census / memory-estimate experiment (E3) depends on them being
cheap.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..bgp.prefix import Prefix

#: Child slots of an inner node, in hashing order.
EDGE_ZERO, EDGE_ONE, EDGE_END = 0, 1, 2
EDGES = (EDGE_ZERO, EDGE_ONE, EDGE_END)


class BitNode:
    """Leaf carrying the blinding ``x`` and label ``H(b || x)`` of one
    input bit: ``b`` is ``bits[c]`` of the prefix node whose
    ``bit_nodes[c]`` this is, so every reader of a bit starts there."""

    __slots__ = ("blinding", "label")

    def __init__(self) -> None:
        self.blinding: Optional[bytes] = None
        self.label: Optional[bytes] = None

    def __repr__(self) -> str:
        return "BitNode()"


class DummyNode:
    """Leaf labeled with a random bitstring, indistinguishable from a
    real subtree label."""

    __slots__ = ("label",)

    def __init__(self, label: bytes):
        self.label = label

    def __repr__(self) -> str:
        return "DummyNode()"


def checked_bits(bits: Sequence[int]) -> Tuple[int, ...]:
    """``bits`` as a tuple (the same object if it is one); ``ValueError``
    unless it is at least one bit, each 0 or 1."""
    bits = tuple(bits)
    if not bits or bits.count(0) + bits.count(1) != len(bits):
        raise ValueError(f"bits must be one or more 0/1s, got {bits!r}")
    return bits


class PrefixNode:
    """The node for one IP prefix: its k input bits and k bit nodes."""

    __slots__ = ("prefix", "bits", "bit_nodes", "label")

    def __init__(self, prefix: Prefix, bits: Tuple[int, ...]):
        self.prefix = prefix
        self.bits = bits
        self.bit_nodes = [BitNode() for _ in bits]
        self.label: Optional[bytes] = None

    def __repr__(self) -> str:
        return f"PrefixNode({self.prefix}, bits={self.bits})"


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
    * a prefix node's ``bits`` is a tuple of 0/1s, one per bit node;
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
        if checked_bits(node.bits) is not node.bits or \
                len(node.bits) != len(node.bit_nodes):
            raise ValueError("prefix node bits: not a tuple with one "
                             "entry per bit node")
        for bit_node in node.bit_nodes:
            if not isinstance(bit_node, BitNode):
                raise ValueError("prefix node child is not a bit node")
    elif not isinstance(node, (BitNode, DummyNode)):
        raise TypeError(f"unknown node type {type(node).__name__}")
