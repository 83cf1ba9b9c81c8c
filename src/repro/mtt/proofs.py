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
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..bgp.prefix import Prefix
from ..crypto.hashing import DIGEST_SIZE, bit_commitment, \
    constant_time_eq, digest_concat
from .nodes import EDGE_END, PrefixNode
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


# A walk builds its steps past the frozen ``__init__``, as the codec
# does; a step has no ``__post_init__`` to skip.
_new_step = PathStep.__new__
_set_child_labels = PathStep.__dict__["child_labels"].__set__
_set_child_index = PathStep.__dict__["child_index"].__set__
_label = attrgetter("label")


@dataclass(frozen=True, slots=True)
class MttBitProof:
    """Proof that the bit for (``prefix``, ``class_index``) had value
    ``bit`` in the committed MTT.

    ``steps[0]`` is the prefix node (children = bit nodes); subsequent
    steps are the inner nodes up to and including the root.

    ``encoded`` carries the proof's byte form: :func:`generate_proofs`
    builds it with the proof, :meth:`encode` builds it for a proof made
    any other way, and the codec sets it to the bytes it decoded the
    proof from.  So the sender signs and ships one encoding and the
    receiver checks the frame's bytes without encoding.  It is not an
    ``__init__`` argument and takes no part in ``==``, ``hash`` or
    ``repr``; a new proof, ``dataclasses.replace`` included, starts
    without it and is encoded afresh.
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
        _set_encoded(self, encoded)
        return encoded


# Sets the carried bytes past the frozen ``__setattr__``; no field the
# bytes are built from is ever set this way.
_set_encoded = MttBitProof.__dict__["encoded"].__set__


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


def generate_proof(tree: Mtt, prefix: Prefix, class_index: int,
                   walks: Optional[Dict[Prefix, "ProofWalk"]] = None
                   ) -> MttBitProof:
    """Build the bit proof for (``prefix``, ``class_index``).

    The tree must already be labeled (see :mod:`repro.mtt.labeling`).
    ``walks`` is as for :func:`generate_proofs`.
    """
    return generate_proofs(tree, prefix, (class_index,), walks)[0]


class ProofWalk:
    """One prefix's path in one labeled tree, walked once.

    ``bit_labels`` are the prefix node's children (step 0's labels, the
    same for every class), ``shared`` the inner steps from the deepest
    up to the root, and ``tail`` the byte form of step 0's labels and
    every shared step, as :meth:`MttBitProof.encode` lays them out;
    ``tail`` is empty when a label on the path is missing or not a
    digest, and then a proof is left to :meth:`~MttBitProof.encode`.
    """

    __slots__ = ("prefix_bytes", "count", "bit_labels", "shared", "tail")

    def __init__(self, tree: Mtt, prefix: Prefix,
                 prefix_node: PrefixNode):
        inner_path = tree.path_to(prefix)
        if inner_path is None:
            raise ProofError(f"no path to {prefix}")
        bit_labels = tuple(map(_label, prefix_node.bit_nodes))
        labels = list(bit_labels)
        parts = list(bit_labels)
        shared: List[PathStep] = []
        for node, edge in zip(reversed(inner_path), _edges_up(prefix)):
            child_labels = tuple(map(_label, node.children))
            step = _new_step(PathStep)
            _set_child_labels(step, child_labels)
            _set_child_index(step, edge)
            shared.append(step)
            labels += child_labels
            parts.append(_S_STEP.pack(len(child_labels), edge))
            parts += child_labels
        self.prefix_bytes = prefix.to_bytes()
        self.count = _S_STEPS.pack(len(shared) + 1)
        self.bit_labels = bit_labels
        self.shared = tuple(shared)
        try:
            encodable = set(map(len, labels)) == {DIGEST_SIZE}
        except TypeError:  # a node an edit left unlabeled
            encodable = False
        self.tail = b"".join(parts) if encodable else b""


def generate_proofs(tree: Mtt, prefix: Prefix, classes: Sequence[int],
                    walks: Optional[Dict[Prefix, ProofWalk]] = None
                    ) -> List[MttBitProof]:
    """The bit proofs for ``prefix`` in each of ``classes``, in order,
    from one walk of its path.

    Equal to ``[generate_proof(tree, prefix, c) for c in classes]`` and
    raising the same :class:`ProofError` for the first class that one
    would fail on.  The proofs differ only in step 0's child index, the
    bit and the blinding; they share every other (immutable) step.
    Each proof carries its bytes (``encoded``), built from the walk's.

    ``walks`` maps a prefix to its :class:`ProofWalk` in ``tree``: a
    walk found there is used, a walk made is added.  It must only ever
    hold walks of this tree as it is now; a caller that keeps one
    (:class:`~repro.spider.proofgen.Reconstruction`) drops it when the
    tree is edited or relabeled.
    """
    if not classes:
        return []
    prefix_node = tree.prefix_node(prefix)
    if prefix_node is None:
        raise ProofError(f"prefix {prefix} not present in the MTT")
    bits, bit_nodes = prefix_node.bits, prefix_node.bit_nodes
    k = len(bit_nodes)
    for class_index in classes:
        if not 0 <= class_index < k:
            raise ProofError(
                f"class {class_index} out of range for {prefix}")
        if bit_nodes[class_index].blinding is None or \
                prefix_node.label is None:
            raise ProofError("tree is not labeled")
    walk = walks.get(prefix) if walks is not None else None
    if walk is None:
        walk = ProofWalk(tree, prefix, prefix_node)
        if walks is not None:
            walks[prefix] = walk
    bit_labels, shared, tail = walk.bit_labels, walk.shared, walk.tail
    proofs: List[MttBitProof] = []
    for class_index in classes:
        bit, blinding = bits[class_index], bit_nodes[class_index].blinding
        assert blinding is not None  # checked above
        proof = MttBitProof(prefix=prefix, class_index=class_index,
                            bit=bit, blinding=blinding,
                            steps=(PathStep(child_labels=bit_labels,
                                            child_index=class_index),)
                            + shared)
        if tail and len(blinding) == DIGEST_SIZE:
            try:
                _set_encoded(proof, b"".join((
                    walk.prefix_bytes, _S_CLASS_BIT.pack(class_index, bit),
                    blinding, walk.count, _S_STEP.pack(k, class_index),
                    tail)))
            except struct.error:
                pass  # encode() refuses the proof when it is asked to
        proofs.append(proof)
    return proofs


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
    prefix = proof.prefix
    steps = proof.steps
    if len(steps) != prefix.length + 2:
        return None  # prefix-node step + one inner step per level + root
    step_digest = cache.digest if cache is not None else _digest_labels

    # Step 0: the prefix node.
    first = steps[0]
    labels = first.child_labels
    if expected_k is not None and len(labels) != expected_k:
        return None
    index = first.child_index
    if index != proof.class_index or not 0 <= index < len(labels):
        return None
    if not constant_time_eq(labels[index],
                            bit_commitment(proof.bit, proof.blinding)):
        return None
    running = step_digest(labels)

    # Inner steps, bottom-up.
    for step, edge in zip(steps[1:], _edges_up(prefix)):
        labels = step.child_labels
        if len(labels) != 3:
            return None
        if step.child_index != edge:
            return None
        if not constant_time_eq(labels[edge], running):
            return None
        running = step_digest(labels)

    if not constant_time_eq(running, root_label):
        return None
    return proof.bit


def _edges_up(prefix: Prefix) -> Iterator[int]:
    """The child index of each inner step of ``prefix``'s path, from the
    deepest up to the root: the deepest reaches the prefix node by E,
    each one above it the next one down by the prefix's bit at its
    depth."""
    return reversed(prefix.bits() + (EDGE_END,))


def _digest_labels(labels: Tuple[bytes, ...]) -> bytes:
    return digest_concat(*labels)
