"""Privacy properties of the MTT (Section 5.3).

The two claims under test:

1. a bit proof does not leak the presence or absence of any prefix other
   than the one being proven — because sibling labels in a proof are
   20-byte values that could equally be dummy randomness or subtree
   hashes;
2. blinding freshness: reusing bitstrings across commitments would let
   neighbors link unchanged subtrees; fresh seeds make consecutive
   commitments unlinkable.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.prefix import Prefix
from repro.crypto.hashing import DIGEST_SIZE
from repro.crypto.rc4 import Rc4Csprng
from repro.mtt.labeling import label_tree
from repro.mtt.proofs import generate_proof
from repro.mtt.tree import Mtt

TARGET = Prefix.parse("128.0.0.0/2")


def labeled_tree(entries, seed):
    tree = Mtt.build(entries)
    report = label_tree(tree, Rc4Csprng(seed))
    return tree, report


def proof_labels(proof):
    """Every sibling label exposed by a proof."""
    labels = []
    for step in proof.steps:
        labels.extend(step.child_labels)
    return labels


class TestSiblingIndistinguishability:
    def test_all_exposed_labels_have_hash_length(self):
        entries = {TARGET: [1, 0], Prefix.parse("0.0.0.0/2"): [0, 1]}
        tree, _ = labeled_tree(entries, b"s")
        proof = generate_proof(tree, TARGET, 0)
        assert all(len(label) == DIGEST_SIZE
                   for label in proof_labels(proof))

    def test_dummy_and_real_siblings_statistically_alike(self):
        """Byte-level statistics cannot separate dummy labels from real
        subtree hashes: both are uniform-looking 20-byte strings."""
        alone = {TARGET: [1, 0]}
        crowded = {TARGET: [1, 0]}
        for i in range(8):
            crowded[Prefix.parse(f"{i}.0.0.0/8")] = [1, 1]

        def mean_byte(proof):
            labels = proof_labels(proof)
            data = b"".join(labels)
            return sum(data) / len(data)

        means_alone, means_crowded = [], []
        for round_index in range(20):
            seed = b"stat-%d" % round_index
            tree_a, _ = labeled_tree(dict(alone), seed)
            tree_b, _ = labeled_tree(dict(crowded), seed + b"x")
            means_alone.append(mean_byte(generate_proof(tree_a, TARGET,
                                                        0)))
            means_crowded.append(mean_byte(generate_proof(tree_b, TARGET,
                                                          0)))
        # Both populations center on 127.5 (uniform bytes); their means
        # must be within a few standard errors of each other.
        mu_a = sum(means_alone) / len(means_alone)
        mu_b = sum(means_crowded) / len(means_crowded)
        assert abs(mu_a - 127.5) < 15
        assert abs(mu_b - 127.5) < 15
        assert abs(mu_a - mu_b) < 20

    def test_proof_shape_identical_with_and_without_sibling(self):
        """The §5.3 guarantee, structurally: the proof for TARGET is the
        same shape whether or not a sibling subtree exists, so its mere
        form reveals nothing."""
        alone = {TARGET: [1, 0]}
        with_sibling = {TARGET: [1, 0],
                        Prefix.parse("192.0.0.0/2"): [1, 1]}
        tree_a, _ = labeled_tree(alone, b"a")
        tree_b, _ = labeled_tree(with_sibling, b"b")
        proof_a = generate_proof(tree_a, TARGET, 0)
        proof_b = generate_proof(tree_b, TARGET, 0)
        assert len(proof_a.steps) == len(proof_b.steps)
        assert [len(s.child_labels) for s in proof_a.steps] == \
            [len(s.child_labels) for s in proof_b.steps]
        assert len(proof_a.encode()) == len(proof_b.encode())

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 3), st.booleans())
    def test_shape_invariance_property(self, extra_count, deeper):
        """Adding unrelated prefixes never changes the proof shape for a
        fixed target prefix (as long as none extends the target)."""
        base = {TARGET: [1]}
        entries = dict(base)
        for i in range(extra_count):
            entries[Prefix.parse(f"{8 + i}.0.0.0/8")] = [1]
        if deeper:
            entries[Prefix.parse("200.0.0.0/7")] = [0]
        tree_a, _ = labeled_tree(base, b"p1")
        tree_b, _ = labeled_tree(entries, b"p2")
        proof_a = generate_proof(tree_a, TARGET, 0)
        proof_b = generate_proof(tree_b, TARGET, 0)
        assert [len(s.child_labels) for s in proof_a.steps] == \
            [len(s.child_labels) for s in proof_b.steps]


class TestBlindingFreshness:
    def test_same_state_different_seed_unlinkable(self):
        """Two commitments over identical routing state share no labels
        when the seed is fresh — the §5.3 requirement."""
        entries = {TARGET: [1, 0], Prefix.parse("0.0.0.0/2"): [0, 1]}
        tree_a, report_a = labeled_tree(dict(entries), b"commit-1")
        tree_b, report_b = labeled_tree(dict(entries), b"commit-2")
        proof_a = generate_proof(tree_a, TARGET, 0)
        proof_b = generate_proof(tree_b, TARGET, 0)
        assert report_a.root_label != report_b.root_label
        labels_a = set(proof_labels(proof_a))
        labels_b = set(proof_labels(proof_b))
        assert not labels_a & labels_b

    def test_seed_reuse_links_unchanged_subtrees(self):
        """The attack the paper warns about: with a reused seed, an
        unchanged subtree keeps its label across commitments, revealing
        that the corresponding routes did not change."""
        entries_t0 = {TARGET: [1, 0], Prefix.parse("0.0.0.0/2"): [0, 1]}
        entries_t1 = {TARGET: [1, 0], Prefix.parse("0.0.0.0/2"): [1, 1]}
        tree_a, _ = labeled_tree(dict(entries_t0), b"reused")
        tree_b, _ = labeled_tree(dict(entries_t1), b"reused")
        label_a = tree_a.prefix_node(TARGET).label
        label_b = tree_b.prefix_node(TARGET).label
        # TARGET's subtree was identical in both states: same label.
        assert label_a == label_b
