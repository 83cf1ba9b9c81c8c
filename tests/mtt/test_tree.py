"""Tests for MTT construction, structure, and the node census."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, \
    precondition, rule

from repro.bgp.prefix import Prefix
from repro.crypto.rc4 import Rc4Csprng
from repro.mtt.labeling import label_tree
from repro.mtt.nodes import BitNode, DummyNode, InnerNode, PrefixNode, \
    validate_structure
from repro.mtt.stats import PAPER_CENSUS, predict_census, \
    slot_identity_holds
from repro.mtt.tree import Mtt


def entries(prefix_texts, k=2, bit=1):
    return {Prefix.parse(t): [bit] * k for t in prefix_texts}


FIGURE4 = ["0.0.0.0/2", "160.0.0.0/3", "128.0.0.0/1"]


class TestBuild:
    def test_figure4_structure(self):
        """The example MTT of Figure 4: prefixes 0/2, 160/3 and 128/1."""
        tree = Mtt.build(entries(FIGURE4, k=1))
        tree.validate()
        assert set(tree.prefixes) == {Prefix.parse(t) for t in FIGURE4}
        # 160.0.0.0/3 is 101 in binary: root -1-> node -0-> node -1-> node
        # -E-> prefix node.
        node = tree.root
        for bit in (1, 0, 1):
            node = node.children[bit]
            assert isinstance(node, InnerNode)
        assert isinstance(node.end, PrefixNode)
        assert node.end.prefix == Prefix.parse("160.0.0.0/3")

    def test_every_inner_slot_filled(self):
        tree = Mtt.build(entries(FIGURE4))
        for node in tree.iter_nodes():
            if isinstance(node, InnerNode):
                assert all(c is not None for c in node.children)

    def test_bits_stored_per_prefix(self):
        p, q = Prefix.parse("10.0.0.0/8"), Prefix.parse("192.0.0.0/4")
        tree = Mtt.build({p: [1, 0, 1], q: [0, 0, 1]})
        assert tree.bits_for(p) == (1, 0, 1)
        assert tree.bits_for(q) == (0, 0, 1)
        assert tree.bits_for(Prefix.parse("172.16.0.0/12")) is None

    def test_nested_prefixes_coexist(self):
        tree = Mtt.build(entries(["10.0.0.0/8", "10.0.0.0/16",
                                  "10.128.0.0/9"]))
        tree.validate()
        assert len(tree.prefixes) == 3

    def test_default_route_at_root(self):
        tree = Mtt.build(entries(["0.0.0.0/0", "128.0.0.0/1"]))
        tree.validate()
        assert isinstance(tree.root.end, PrefixNode)

    def test_duplicate_prefix_rejected(self):
        with pytest.raises(ValueError):
            Mtt.build({Prefix.parse("10.0.0.0/8"): []})

    def test_empty_tree(self):
        tree = Mtt.build({})
        assert tree.prefixes == ()
        census = tree.census()
        assert census.total == 1 and census.dummy == 1

    def test_path_to(self):
        tree = Mtt.build(entries(FIGURE4))
        path = tree.path_to(Prefix.parse("160.0.0.0/3"))
        assert len(path) == 4  # root + 3 bit levels
        assert tree.path_to(Prefix.parse("10.0.0.0/8")) is None


class TestCensus:
    def test_figure4_counts(self):
        tree = Mtt.build(entries(FIGURE4, k=1))
        census = tree.census()
        assert census.prefix == 3
        assert census.bit == 3
        # Paths: "", 0, 00, 1, 10, 101 → 6 inner nodes.
        assert census.inner == 6
        assert slot_identity_holds(census)

    def test_bit_count_scales_with_k(self):
        for k in (1, 5, 50):
            tree = Mtt.build(entries(FIGURE4, k=k))
            assert tree.census().bit == 3 * k

    def test_slot_identity_matches_paper_census(self):
        # 3·inner = (inner−1) + prefix + dummy holds for the §7.3 numbers
        # (to within the paper's rounding of the dummy count).
        lhs = 3 * PAPER_CENSUS.inner
        rhs = (PAPER_CENSUS.inner - 1) + PAPER_CENSUS.prefix \
            + PAPER_CENSUS.dummy
        assert abs(lhs - rhs) <= 1000

    def test_predict_census_matches_built_tree(self):
        texts = ["10.0.0.0/8", "10.0.0.0/16", "192.168.0.0/16",
                 "192.168.1.0/24", "0.0.0.0/0", "128.0.0.0/2"]
        built = Mtt.build(entries(texts, k=3)).census()
        predicted = predict_census([Prefix.parse(t) for t in texts],
                                   classes_per_prefix=3)
        assert built == predicted

    def test_predict_census_empty(self):
        census = predict_census([], classes_per_prefix=5)
        assert census.prefix == 0 and census.bit == 0

    def test_memory_estimate_positive_and_monotone(self):
        small = Mtt.build(entries(FIGURE4, k=1)).census()
        large = Mtt.build(entries(FIGURE4, k=50)).census()
        assert 0 < small.estimated_bytes() < large.estimated_bytes()


def shape(node):
    """A tree as nested tuples: node types, prefixes, bits, child
    order — everything M(P, ε) fixes, nothing labeling adds.  A prefix
    node gives its bit tuple and one bit node per bit, in class order."""
    if isinstance(node, InnerNode):
        return ("inner", *[shape(child) for child in node.children])
    if isinstance(node, PrefixNode):
        assert all(type(b) is BitNode for b in node.bit_nodes)
        return ("prefix", node.prefix, node.bits,
                ("bit",) * len(node.bit_nodes))
    assert isinstance(node, DummyNode)
    return ("dummy",)


def assert_is_the_built_tree(tree, current):
    """``tree`` is, node for node and label for label, what
    ``Mtt.build`` makes of ``current``."""
    built = Mtt.build(current)
    tree.validate()
    assert shape(tree.root) == shape(built.root)
    assert tree.prefixes == built.prefixes
    assert all(tree.bits_for(p) == tuple(bits)
               for p, bits in current.items())
    assert tree.census() == built.census()
    roots = [label_tree(t, Rc4Csprng(b"one seed")).root_label
             for t in (tree, built)]
    assert roots[0] == roots[1]
    assert [n.label for n in tree.iter_nodes()] == \
        [n.label for n in built.iter_nodes()]


#: Prefixes of length 0-32 that nest: a short random stem, alone or
#: continued by a fixed tail (so /0, a /2 above a /14, a /32 ...).
nesting_prefixes = st.builds(
    lambda stem, tail: Prefix.from_bits(tuple(stem) + tail),
    st.lists(st.integers(0, 1), max_size=4),
    st.sampled_from([(), (0,) * 12, (1, 0) * 10, (1,) * 28]))
bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=5)


class TreeEdits(RuleBasedStateMachine):
    """Random insert / remove / set_bits against the from-scratch
    build of the same entries, compared after every step."""

    def __init__(self):
        super().__init__()
        self.tree = Mtt()
        self.current = {}

    @rule(prefix=nesting_prefixes, bits=bit_lists)
    def insert(self, prefix, bits):
        if prefix in self.current:
            with pytest.raises(ValueError):
                self.tree.insert(prefix, bits)
        else:
            self.tree.insert(prefix, bits)
            self.current[prefix] = bits

    @rule(prefix=nesting_prefixes, bits=bit_lists)
    def touch_absent(self, prefix, bits):
        if prefix not in self.current:
            with pytest.raises(KeyError):
                self.tree.remove(prefix)
            with pytest.raises(KeyError):
                self.tree.set_bits(prefix, bits)

    @precondition(lambda self: self.current)
    @rule(data=st.data())
    def remove(self, data):
        prefix = data.draw(st.sampled_from(sorted(self.current)))
        self.tree.remove(prefix)
        del self.current[prefix]

    @precondition(lambda self: self.current)
    @rule(data=st.data(), bits=bit_lists)
    def set_bits(self, data, bits):
        prefix = data.draw(st.sampled_from(sorted(self.current)))
        same_k = len(bits) == len(self.current[prefix])
        schedule, version = self.tree.schedule(), self.tree.version
        self.tree.set_bits(prefix, bits)
        self.current[prefix] = bits
        # Rewritten bits keep the schedule; another k is a new shape.
        assert (self.tree.schedule() is schedule) == same_k
        assert self.tree.version > version

    @invariant()
    def equals_the_built_tree(self):
        assert_is_the_built_tree(self.tree, self.current)


TreeEdits.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None)
TestTreeEdits = TreeEdits.TestCase


class TestEditCases:
    """The transitions the state machine must not miss by chance."""

    LONG = Prefix.parse("10.1.2.3/32")

    def test_empty_to_one_prefix_and_back(self):
        tree = Mtt()
        assert isinstance(tree.root, DummyNode)
        tree.insert(self.LONG, [1, 0])
        assert_is_the_built_tree(tree, {self.LONG: [1, 0]})
        assert tree.census().inner == 33
        # The last prefix under a 32-deep inner chain: all of it goes.
        tree.remove(self.LONG)
        assert isinstance(tree.root, DummyNode)
        assert_is_the_built_tree(tree, {})

    def test_default_route_alone(self):
        tree = Mtt()
        tree.insert(Prefix.parse("0.0.0.0/0"), [1])
        assert_is_the_built_tree(tree, {Prefix.parse("0.0.0.0/0"): [1]})
        tree.remove(Prefix.parse("0.0.0.0/0"))
        assert_is_the_built_tree(tree, {})

    def test_remove_keeps_what_other_prefixes_need(self):
        above, below = Prefix.parse("10.1.0.0/16"), \
            Prefix.parse("10.1.2.0/24")
        side = Prefix.parse("10.1.3.0/24")
        current = {above: [1], below: [0], side: [1]}
        tree = Mtt.build(current)
        for gone in (below, above, side):
            tree.remove(gone)
            del current[gone]
            assert_is_the_built_tree(tree, current)

    def test_remove_then_reinsert(self):
        current = entries(FIGURE4)
        tree = Mtt.build(current)
        victim = Prefix.parse("160.0.0.0/3")
        tree.remove(victim)
        tree.insert(victim, [0, 1])
        assert_is_the_built_tree(tree, {**current, victim: [0, 1]})

    def test_set_bits_rewrites_in_place(self):
        p = Prefix.parse("10.0.0.0/8")
        tree = Mtt.build({p: [1, 0, 1]})
        schedule, nodes = tree.schedule(), list(tree.prefix_node(p).bit_nodes)
        bits = (0, 1, 1)
        tree.set_bits(p, bits)
        assert tree.bits_for(p) is bits  # stored, not copied
        assert tree.schedule() is schedule
        assert tree.prefix_node(p).bit_nodes == nodes
        with pytest.raises(ValueError):
            tree.set_bits(p, [0, 2, 1])
        assert tree.bits_for(p) == (0, 1, 1)  # rejected whole

    def test_set_bits_with_another_k_is_a_new_shape(self):
        p = Prefix.parse("10.0.0.0/8")
        tree = Mtt.build({p: [1, 0, 1]})
        schedule = tree.schedule()
        tree.set_bits(p, [1, 1])
        assert tree.schedule() is not schedule
        assert_is_the_built_tree(tree, {p: [1, 1]})
        with pytest.raises(ValueError):
            tree.set_bits(p, [])

    def test_rejected_edits_leave_the_tree_alone(self):
        current = entries(FIGURE4)
        tree = Mtt.build(current)
        version = tree.version
        with pytest.raises(ValueError):
            tree.insert(Prefix.parse("128.0.0.0/1"), [1])
        with pytest.raises(ValueError):
            tree.insert(Prefix.parse("10.0.0.0/8"), [])
        with pytest.raises(KeyError):
            tree.remove(Prefix.parse("10.0.0.0/8"))
        assert tree.version == version
        assert_is_the_built_tree(tree, current)

    def test_census_outlives_a_released_schedule(self):
        tree = Mtt.build(entries(FIGURE4))
        census, schedule = tree.census(), tree.schedule()
        tree.release_schedule()
        assert tree.census() is census
        assert tree.schedule() is not schedule


class TestValidation:
    def test_validate_rejects_inner_on_end_edge(self):
        root = InnerNode()
        root.children[0] = DummyNode(label=b"x")
        root.children[1] = DummyNode(label=b"x")
        root.children[2] = InnerNode()
        with pytest.raises(ValueError):
            validate_structure(root)

    def test_validate_rejects_missing_child(self):
        root = InnerNode()
        root.children[0] = DummyNode(label=b"x")
        root.children[1] = DummyNode(label=b"x")
        with pytest.raises(ValueError):
            validate_structure(root)

    def test_validate_rejects_bit_node_under_inner(self):
        root = InnerNode()
        root.children[0] = BitNode()
        root.children[1] = DummyNode(label=b"x")
        root.children[2] = DummyNode(label=b"x")
        with pytest.raises(ValueError):
            validate_structure(root)

    def test_bit_node_holds_a_blinding_and_a_label_only(self):
        assert BitNode.__slots__ == ("blinding", "label")

    P = Prefix.parse("10.0.0.0/8")

    def refused(self, bits):
        """A prefix node built by hand holds whatever it is given;
        validation refuses it, as ``insert`` refuses the bits."""
        node = PrefixNode(self.P, bits)
        assert len(node.bit_nodes) == len(bits)
        with pytest.raises(ValueError):
            validate_structure(node)
        with pytest.raises(ValueError):
            Mtt().insert(self.P, bits)

    def test_prefix_node_requires_bit_nodes(self):
        self.refused(())

    def test_bit_node_requires_binary_bit(self):
        for bits in [(0, 2), (1, -1), (None,)]:
            self.refused(bits)

    def test_prefix_node_bits_must_be_a_tuple(self):
        node = PrefixNode(self.P, (1, 0))
        validate_structure(node)
        node.bits = [1, 0]
        with pytest.raises(ValueError):
            validate_structure(node)

    def test_prefix_node_needs_one_bit_per_bit_node(self):
        node = PrefixNode(self.P, (1, 0))
        node.bits = (1, 0, 1)
        with pytest.raises(ValueError):
            validate_structure(node)
        node.bits = (1,)
        with pytest.raises(ValueError):
            validate_structure(node)

    def test_validate_reaches_a_prefix_node_in_a_tree(self):
        tree = Mtt.build({self.P: [1, 0]})
        tree.validate()
        tree.prefix_node(self.P).bits = (1, 2)
        with pytest.raises(ValueError):
            tree.validate()
