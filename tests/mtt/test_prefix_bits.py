"""A prefix node holds its k input bits as one tuple, and every reader of
a bit takes it from there.

The edit property drives one tree through random inserts, removals,
rewrites at the same k and at another k, and refused edits, then labels
it.  The bits the tree reports must be the entries; every bit node's
label must commit to its prefix node's bit under its own blinding,
through the hash pass and through the reference traversal; every proof
must open that bit; and the from-scratch build of the same entries must
give the same bits and the same root.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.prefix import Prefix
from repro.crypto.hashing import bit_commitment
from repro.crypto.rc4 import Rc4Csprng
from repro.mtt.labeling import compute_label, label_tree
from repro.mtt.proofs import generate_proofs, verify_proof
from repro.mtt.tree import Mtt

from tests.mtt.test_tree import bit_lists, nesting_prefixes

#: Bits no edit may store: a 2, a −1, none at all.
BAD_BITS = ([2], [0, -1], [])


def held_bits(tree):
    """Each prefix's bit tuple, the objects themselves."""
    return {p: tree.bits_for(p) for p in tree.prefixes}


def assert_refused(tree, edit, *args):
    """``edit`` raises ``ValueError`` and changes neither the version
    nor any prefix's bit tuple."""
    version, before = tree.version, held_bits(tree)
    with pytest.raises(ValueError):
        edit(*args)
    assert tree.version == version
    after = held_bits(tree)
    assert after.keys() == before.keys()
    assert all(after[p] is before[p] for p in before)


def bit_labels(tree):
    """Every bit node's label against ``H(bits_for(p)[c] || x)``."""
    for prefix in tree.prefixes:
        node = tree.prefix_node(prefix)
        bits = tree.bits_for(prefix)
        assert len(bits) == len(node.bit_nodes)
        for bit, bit_node in zip(bits, node.bit_nodes):
            assert bit_node.label == bit_commitment(bit, bit_node.blinding)


def apply_edit(tree, entries, data):
    """One random edit, mirrored into ``entries`` when it is accepted."""
    op = data.draw(st.sampled_from(
        ["insert", "remove", "same_k", "other_k", "refused"]), label="op")
    present = sorted(entries)
    if op == "insert" or not present:
        prefix = data.draw(nesting_prefixes, label="prefix")
        bits = data.draw(bit_lists, label="bits")
        if prefix in entries:
            assert_refused(tree, tree.insert, prefix, bits)
        else:
            tree.insert(prefix, bits)
            entries[prefix] = tuple(bits)
        return
    prefix = data.draw(st.sampled_from(present), label="present")
    k = len(entries[prefix])
    version = tree.version
    if op == "remove":
        tree.remove(prefix)
        del entries[prefix]
    elif op == "same_k":
        bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=k,
                                        max_size=k), label="same k"))
        schedule = tree.schedule()
        tree.set_bits(prefix, bits)
        assert tree.schedule() is schedule
        entries[prefix] = bits
    elif op == "other_k":
        other = data.draw(st.sampled_from(
            [n for n in range(1, 6) if n != k]), label="other k")
        bits = data.draw(st.lists(st.integers(0, 1), min_size=other,
                                  max_size=other), label="bits")
        tree.set_bits(prefix, bits)
        entries[prefix] = tuple(bits)
    else:
        bad = data.draw(st.sampled_from(BAD_BITS), label="bad")
        assert_refused(tree, tree.set_bits, prefix, bad)
        assert_refused(tree, tree.set_bits, prefix,
                       ([0] * (k - 1) + [2]) if bad else [])
        return
    assert tree.version > version


class TestEveryReaderReadsThePrefixNode:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_edits_then_labels_proofs_and_the_built_tree(self, data):
        tree, entries = Mtt(), {}
        for _ in range(data.draw(st.integers(1, 20), label="edits")):
            apply_edit(tree, entries, data)
        assert set(tree.prefixes) == set(entries)
        assert all(tree.bits_for(p) == bits for p, bits in entries.items())

        seed = data.draw(st.binary(min_size=1, max_size=8), label="seed")
        root = label_tree(tree, Rc4Csprng(seed)).root_label
        bit_labels(tree)  # the hash pass
        for prefix in tree.prefixes:
            for bit_node in tree.prefix_node(prefix).bit_nodes:
                bit_node.label = None
        assert compute_label(tree.root) == root
        bit_labels(tree)  # the reference traversal

        for prefix, bits in entries.items():
            k = len(bits)
            for c, proof in enumerate(
                    generate_proofs(tree, prefix, range(k))):
                assert proof.bit == bits[c]
                assert verify_proof(root, proof, expected_k=k) == bits[c]

        built = Mtt.build(entries)
        assert held_bits(built) == held_bits(tree)
        assert label_tree(built, Rc4Csprng(seed)).root_label == root


class TestRefusedBits:
    P = Prefix.parse("10.0.0.0/8")
    Q = Prefix.parse("192.0.2.0/24")

    @pytest.mark.parametrize("bad", BAD_BITS + ([1, 2], [-1, 0]))
    def test_insert_refuses(self, bad):
        tree = Mtt.build({self.P: (1, 0)})
        assert_refused(tree, tree.insert, self.Q, bad)
        assert tree.prefix_node(self.Q) is None

    @pytest.mark.parametrize("bad", BAD_BITS + ([1, 2], [-1, 0]))
    def test_set_bits_refuses(self, bad):
        """At the same k (``[1, 2]``, ``[-1, 0]``) and at another."""
        tree = Mtt.build({self.P: (1, 0), self.Q: (0, 1)})
        schedule = tree.schedule()
        assert_refused(tree, tree.set_bits, self.P, bad)
        assert tree.schedule() is schedule

    def test_a_stored_tuple_is_the_one_read(self):
        tree = Mtt()
        tree.insert(self.P, [1, 0, 1])
        bits = tree.bits_for(self.P)
        assert type(bits) is tuple and bits == (1, 0, 1)
        assert bits is tree.prefix_node(self.P).bits
        shared = (0, 0, 1)
        tree.insert(self.Q, shared)
        tree.set_bits(self.P, shared)
        assert tree.bits_for(self.P) is tree.bits_for(self.Q) is shared
