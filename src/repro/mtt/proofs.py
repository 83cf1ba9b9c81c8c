"""MTT bit proofs (Section 5.3).

A bit proof for bit ``b_i`` of prefix ``p`` consists of (a) the values of
``b_i`` and ``x_i``, and (b) the labels of all direct children of each
node on the path from the bit node to the root.  The verifier recomputes
the root label from these values; because random bitstrings are the same
length as hash values, it cannot tell which sibling labels are dummy
nodes and which are real subtrees — the proof leaks nothing about the
presence or absence of any other prefix.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bgp.prefix import Prefix
from ..crypto.hashing import DIGEST_SIZE, bit_commitment, \
    constant_time_eq, digest_concat
from .nodes import EDGE_END, InnerNode
from .tree import Mtt

_S_CLASS_BIT = struct.Struct(">IB")  # class_index | bit
_S_STEPS = struct.Struct(">H")       # n_steps
_S_STEP = struct.Struct(">HH")       # n_children | child_index


@dataclass(frozen=True, slots=True)
class PathStep:
    """One node on the proof path: its children's labels and which child
    leads toward the proven bit."""

    child_labels: Tuple[bytes, ...]
    child_index: int


@dataclass(frozen=True, slots=True)
class MttBitProof:
    """Proof that the bit for (``prefix``, ``class_index``) had value
    ``bit`` in the committed MTT.

    ``steps[0]`` is the prefix node (children = bit nodes); subsequent
    steps are the inner nodes up to and including the root.

    ``encoded`` carries the proof's byte form once :meth:`encode` has
    built it, or the codec has decoded the proof from it, so the sender
    signs and ships one encoding and the receiver checks the frame's
    bytes without encoding.  It is not an ``__init__`` argument and
    takes no part in ``==``, ``hash`` or ``repr``; a new proof,
    ``dataclasses.replace`` included, starts without it and is encoded
    afresh.
    """

    prefix: Prefix
    class_index: int
    bit: int
    blinding: bytes
    steps: Tuple[PathStep, ...]
    encoded: bytes = field(default=b"", init=False, compare=False,
                           repr=False)

    def encode(self) -> bytes:
        """The proof's one byte form: what :class:`~repro.spider.wire.
        SpiderBitProof` signs and what the wire codec ships.

        ``prefix(5) | u32 class | u8 bit | blinding[20] | u16 n_steps``,
        then per step ``u16 n_children | u16 child_index | labels``.
        Raises ``ValueError`` for a field the layout cannot hold.
        """
        if self.encoded:
            return self.encoded
        if len(self.blinding) != DIGEST_SIZE:
            raise ValueError("blinding has wrong length")
        out = bytearray(self.prefix.to_bytes())
        try:
            out += _S_CLASS_BIT.pack(self.class_index, self.bit)
            out += self.blinding
            out += _S_STEPS.pack(len(self.steps))
            for step in self.steps:
                out += _S_STEP.pack(len(step.child_labels),
                                    step.child_index)
                for label in step.child_labels:
                    if len(label) != DIGEST_SIZE:
                        raise ValueError("node label has wrong length")
                    out += label
        except struct.error as exc:
            raise ValueError(f"proof field out of range: {exc}") from exc
        encoded = bytes(out)
        object.__setattr__(self, "encoded", encoded)
        return encoded


class LabelDigestCache:
    """Memoized ``digest_concat`` over child-label tuples.

    Path steps repeat across a batch of proofs for the same commitment:
    all 0-proofs for one prefix share every step, and all proofs for one
    root share the steps near the root.  The cache maps the *exact* hash
    input (the child-label tuple) to its digest, so it can only ever
    return what ``digest_concat`` would have — equality checks in
    :func:`verify_proof` are unaffected.  Never share a cache across
    electors or commitment roots you do not trust jointly; a cache is
    cheap, make a fresh one per batch.
    """

    __slots__ = ("_store", "hits", "misses")

    def __init__(self):
        self._store: Dict[Tuple[bytes, ...], bytes] = {}
        self.hits = 0
        self.misses = 0

    def digest(self, child_labels: Tuple[bytes, ...]) -> bytes:
        value = self._store.get(child_labels)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = digest_concat(*child_labels)
        self._store[child_labels] = value
        return value


class ProofError(ValueError):
    """Raised when a proof cannot be generated (absent prefix/class)."""


def generate_proof(tree: Mtt, prefix: Prefix,
                   class_index: int) -> MttBitProof:
    """Build the bit proof for (``prefix``, ``class_index``).

    The tree must already be labeled (see :mod:`repro.mtt.labeling`).
    """
    return generate_proofs(tree, prefix, (class_index,))[0]


def generate_proofs(tree: Mtt, prefix: Prefix,
                    classes: Sequence[int]) -> List[MttBitProof]:
    """The bit proofs for ``prefix`` in each of ``classes``, in order,
    from one walk of its path.

    Equal to ``[generate_proof(tree, prefix, c) for c in classes]`` and
    raising the same :class:`ProofError` for the first class that one
    would fail on.  The proofs differ only in step 0's child index, the
    bit and the blinding; they share every other (immutable) step.
    """
    if not classes:
        return []
    prefix_node = tree.prefix_node(prefix)
    if prefix_node is None:
        raise ProofError(f"prefix {prefix} not present in the MTT")
    bit_nodes = prefix_node.bit_nodes
    leaves: List[Tuple[int, int, bytes]] = []
    inner_path: Optional[List[InnerNode]] = None
    for class_index in classes:
        if not 0 <= class_index < len(bit_nodes):
            raise ProofError(
                f"class {class_index} out of range for {prefix}")
        if inner_path is None:
            inner_path = tree.path_to(prefix)
            if inner_path is None:
                raise ProofError(f"no path to {prefix}")
        bit_node = bit_nodes[class_index]
        if bit_node.blinding is None or prefix_node.label is None:
            raise ProofError("tree is not labeled")
        leaves.append((class_index, bit_node.bit, bit_node.blinding))
    assert inner_path is not None  # set by the first class

    # Walk back up: the deepest inner node reaches the prefix node via E;
    # every other inner node reaches the next via the prefix's path bit.
    bits = prefix.bits()
    path: List[PathStep] = []
    for depth in range(len(inner_path) - 1, -1, -1):
        node = inner_path[depth]
        edge = EDGE_END if depth == len(inner_path) - 1 else bits[depth]
        path.append(PathStep(
            child_labels=tuple(c.label for c in node.children),
            child_index=edge,
        ))
    shared = tuple(path)
    bit_labels = tuple(b.label for b in bit_nodes)
    return [
        MttBitProof(prefix=prefix, class_index=class_index, bit=bit,
                    blinding=blinding,
                    steps=(PathStep(child_labels=bit_labels,
                                    child_index=class_index),) + shared)
        for class_index, bit, blinding in leaves
    ]


def verify_proof(root_label: bytes, proof: MttBitProof,
                 expected_k: Optional[int] = None,
                 cache: Optional[LabelDigestCache] = None) -> Optional[int]:
    """Check a bit proof against a committed root label.

    Returns the proven bit (0/1) when valid, None otherwise.  The
    verifier independently derives the expected path-child indices from
    the prefix, so a proof cannot be replayed for a different prefix or
    class.  A :class:`LabelDigestCache` may be supplied when checking a
    batch of proofs against the same commitment; it memoizes only the
    pure label-digest computation and bypasses no check.
    """
    if proof.bit not in (0, 1):
        return None
    if len(proof.blinding) != DIGEST_SIZE:
        return None
    bits = proof.prefix.bits()
    if len(proof.steps) != len(bits) + 2:
        return None  # prefix-node step + one inner step per level + root
    step_digest = cache.digest if cache is not None else \
        (lambda labels: digest_concat(*labels))

    # Step 0: the prefix node.
    first = proof.steps[0]
    if expected_k is not None and len(first.child_labels) != expected_k:
        return None
    if first.child_index != proof.class_index or \
            not 0 <= first.child_index < len(first.child_labels):
        return None
    leaf_label = bit_commitment(proof.bit, proof.blinding)
    if not constant_time_eq(first.child_labels[first.child_index],
                            leaf_label):
        return None
    running = step_digest(first.child_labels)

    # Inner steps, bottom-up: deepest uses edge E, then the prefix bits
    # in reverse.
    expected_edges = [EDGE_END] + list(reversed(bits))
    for step, edge in zip(proof.steps[1:], expected_edges):
        if len(step.child_labels) != 3:
            return None
        if step.child_index != edge:
            return None
        if not constant_time_eq(step.child_labels[edge], running):
            return None
        running = step_digest(step.child_labels)

    if not constant_time_eq(running, root_label):
        return None
    return proof.bit
