"""A proof set walks each prefix's path once, and proves the same bits.

``generate_proofs`` builds a proof's shared steps and its bytes from one
:class:`ProofWalk` per prefix, which a caller may keep in a table and
hand back for the next recipient; ``verify_proof`` walks the steps with
one running edge.  These tests hold both to what they replaced: the
proofs a ``PathStep`` per level gives, a fresh ``encode()``, and the
per-step checking loop, kept here as the reference.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import DIGEST_SIZE, bit_commitment, \
    constant_time_eq, digest_concat
from repro.mtt.nodes import EDGE_END
from repro.mtt.proofs import LabelDigestCache, MttBitProof, PathStep, \
    ProofWalk, generate_proof, generate_proofs, verify_proof

from tests.mtt.test_labeling_and_proofs import BASIC, build_labeled, \
    random_entries


def reference_proofs(tree, prefix, classes):
    """The proofs of ``prefix`` in ``classes`` built step by step, with
    no walk kept."""
    prefix_node = tree.prefix_node(prefix)
    inner_path = tree.path_to(prefix)
    bits = prefix.bits()
    path = []
    for depth in range(len(inner_path) - 1, -1, -1):
        node = inner_path[depth]
        edge = EDGE_END if depth == len(inner_path) - 1 else bits[depth]
        path.append(PathStep(
            child_labels=tuple(c.label for c in node.children),
            child_index=edge))
    bit_labels = tuple(b.label for b in prefix_node.bit_nodes)
    return [
        MttBitProof(prefix=prefix, class_index=c,
                    bit=prefix_node.bits[c],
                    blinding=prefix_node.bit_nodes[c].blinding,
                    steps=(PathStep(child_labels=bit_labels,
                                    child_index=c),) + tuple(path))
        for c in classes]


def reference_verify(root_label, proof, expected_k=None):
    """The per-step checking loop: an edge list zipped with the steps."""
    if proof.bit not in (0, 1):
        return None
    if len(proof.blinding) != DIGEST_SIZE:
        return None
    bits = proof.prefix.bits()
    if len(proof.steps) != len(bits) + 2:
        return None
    first = proof.steps[0]
    if expected_k is not None and len(first.child_labels) != expected_k:
        return None
    if first.child_index != proof.class_index or \
            not 0 <= first.child_index < len(first.child_labels):
        return None
    if not constant_time_eq(first.child_labels[first.child_index],
                            bit_commitment(proof.bit, proof.blinding)):
        return None
    running = digest_concat(*first.child_labels)
    expected_edges = [EDGE_END] + list(reversed(bits))
    for step, edge in zip(proof.steps[1:], expected_edges):
        if len(step.child_labels) != 3:
            return None
        if step.child_index != edge:
            return None
        if not constant_time_eq(step.child_labels[edge], running):
            return None
        running = digest_concat(*step.child_labels)
    if not constant_time_eq(running, root_label):
        return None
    return proof.bit


def fresh_encode(proof):
    copy = dataclasses.replace(proof)
    assert copy.encoded == b""
    return copy.encode()


def flip(label, at=0):
    return label[:at] + bytes([label[at] ^ 1]) + label[at + 1:]


def with_step(proof, i, step):
    steps = proof.steps[:i] + (step,) + proof.steps[i + 1:]
    return dataclasses.replace(proof, steps=steps)


def tampers(proof, data):
    """``(name, proof, expected_k offset)``: each single-field change a
    checker must refuse."""
    k = len(proof.steps[0].child_labels)
    i = data.draw(st.integers(0, len(proof.steps) - 1), label="step")
    step = proof.steps[i]
    j = data.draw(st.integers(0, len(step.child_labels) - 1),
                  label="label")
    labels = step.child_labels
    yield "bit", dataclasses.replace(proof, bit=1 - proof.bit), 0
    yield "blinding", dataclasses.replace(
        proof, blinding=flip(proof.blinding,
                             data.draw(st.integers(0, DIGEST_SIZE - 1),
                                       label="byte"))), 0
    yield "label", with_step(proof, i, PathStep(
        child_labels=labels[:j] + (flip(labels[j]),) + labels[j + 1:],
        child_index=step.child_index)), 0
    bound = k if i == 0 else 3
    other = data.draw(st.integers(0, bound - 1).filter(
        lambda c: c != step.child_index) if bound > 1 else
        st.just(step.child_index + 1), label="child_index")
    yield "child_index", with_step(proof, i, PathStep(
        child_labels=labels, child_index=other)), 0
    yield "dropped_step", dataclasses.replace(
        proof, steps=proof.steps[:i] + proof.steps[i + 1:]), 0
    yield "wrong_k", proof, data.draw(st.sampled_from([-1, 1]),
                                      label="k offset")


class TestGeneration:
    @settings(max_examples=60, deadline=None)
    @given(random_entries(), st.data())
    @example(BASIC, None)
    def test_proofs_equal_the_step_by_step_build(self, entries, data):
        """With and without a walk table, and read back from it, every
        proof is the step-by-step one and carries a fresh encoding."""
        tree, _ = build_labeled(entries)
        walks = {}
        for prefix in sorted(entries):
            k = len(entries[prefix])
            classes = list(range(k)) if data is None else data.draw(
                st.lists(st.integers(0, k - 1), min_size=1,
                         max_size=k + 1), label="classes")
            expected = reference_proofs(tree, prefix, classes)
            unshared = generate_proofs(tree, prefix, classes)
            first = generate_proofs(tree, prefix, classes, walks)
            assert prefix in walks
            walk = walks[prefix]
            again = generate_proofs(tree, prefix, classes, walks)
            assert walks[prefix] is walk
            single = [generate_proof(tree, prefix, c, walks)
                      for c in classes]
            for proofs in (unshared, first, again, single):
                assert proofs == expected
                for proof, reference in zip(proofs, expected):
                    assert proof.steps == reference.steps
                    assert proof.encoded == fresh_encode(reference)
                    assert proof.encoded == fresh_encode(proof)
            # The walk's steps are the proofs' shared steps, not copies.
            for proof in again + single:
                assert all(a is b for a, b in
                           zip(proof.steps[1:], walk.shared))

    def test_an_unlabeled_path_leaves_the_bytes_to_encode(self):
        """A walk over a node left unlabeled carries no bytes, so the
        proof encodes (and fails) as one built step by step would."""
        tree, _ = build_labeled(BASIC)
        prefix = sorted(BASIC)[0]
        tree.path_to(prefix)[0].children[2].label = None
        walk = ProofWalk(tree, prefix, tree.prefix_node(prefix))
        assert walk.tail == b""
        proof = generate_proofs(tree, prefix, [0], {prefix: walk})[0]
        assert proof.encoded == b""


class TestChecking:
    @settings(max_examples=60, deadline=None)
    @given(random_entries(), st.data())
    def test_verify_agrees_with_the_reference_loop(self, entries, data):
        tree, report = build_labeled(entries)
        root = report.root_label
        prefix = data.draw(st.sampled_from(sorted(entries)),
                           label="prefix")
        k = len(entries[prefix])
        class_index = data.draw(st.integers(0, k - 1), label="class")
        proof = generate_proof(tree, prefix, class_index)
        cache = LabelDigestCache()
        for memo in (None, cache):
            assert verify_proof(root, proof, expected_k=k, cache=memo) \
                == reference_verify(root, proof, expected_k=k) \
                == entries[prefix][class_index]
            assert verify_proof(root, proof, cache=memo) == \
                reference_verify(root, proof)
        for name, tampered, k_offset in tampers(proof, data):
            wanted = k + k_offset
            expected = reference_verify(root, tampered, expected_k=wanted)
            assert expected is None, name
            for memo in (None, cache):
                assert verify_proof(root, tampered, expected_k=wanted,
                                    cache=memo) is None, name
