"""Tests for MTT labeling, reconstruction, and bit proofs."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.prefix import Prefix
from repro.crypto import hashing
from repro.crypto.rc4 import Rc4Csprng
from repro.mtt.labeling import assign_randomness, compute_label, \
    label_tree, label_tree_parallel
from repro.mtt.pool import LabelPool
from repro.mtt.proofs import LabelDigestCache, MttBitProof, PathStep, \
    ProofError, generate_proof, generate_proofs, verify_proof
from repro.mtt.tree import Mtt


def build_labeled(entries, seed=b"seed"):
    tree = Mtt.build(entries)
    report = label_tree(tree, Rc4Csprng(seed))
    return tree, report


BASIC = {
    Prefix.parse("0.0.0.0/2"): [1, 0, 1],
    Prefix.parse("160.0.0.0/3"): [0, 1, 0],
    Prefix.parse("128.0.0.0/1"): [1, 1, 0],
}


def wide_entries():
    from repro.traces.workload import generate_prefixes
    return {p: [i % 2 for i in range(7)]
            for p in generate_prefixes(200, seed=11)}


def bench_entries():
    from repro.traces.workload import generate_prefixes
    return {p: [1] * 50 for p in generate_prefixes(2000, seed=7)}


class TestLabeling:
    def test_root_label_is_20_bytes(self):
        _, report = build_labeled(BASIC)
        assert len(report.root_label) == 20

    def test_deterministic_for_same_seed(self):
        _, a = build_labeled(BASIC, seed=b"s1")
        _, b = build_labeled(BASIC, seed=b"s1")
        assert a.root_label == b.root_label

    def test_fresh_seed_changes_root(self):
        """Section 5.3: bitstrings must be replaced for each commitment,
        otherwise neighbors could link identical subtrees across rounds."""
        _, a = build_labeled(BASIC, seed=b"s1")
        _, b = build_labeled(BASIC, seed=b"s2")
        assert a.root_label != b.root_label

    def test_bit_flip_changes_root(self):
        changed = dict(BASIC)
        changed[Prefix.parse("0.0.0.0/2")] = [0, 0, 1]
        _, a = build_labeled(BASIC)
        _, b = build_labeled(changed)
        assert a.root_label != b.root_label

    def test_hash_count_matches_census(self):
        tree, report = build_labeled(BASIC)
        census = tree.census()
        assert report.hash_count == census.bit + census.prefix + \
            census.inner

    def test_reconstruction_from_seed(self):
        """The §6.5 replay property: rebuilding the same tree with the
        stored seed reproduces the identical commitment."""
        tree1, report1 = build_labeled(BASIC, seed=b"commit-42")
        tree2, report2 = build_labeled(BASIC, seed=b"commit-42")
        proof1 = generate_proof(tree1, Prefix.parse("160.0.0.0/3"), 1)
        proof2 = generate_proof(tree2, Prefix.parse("160.0.0.0/3"), 1)
        assert report1.root_label == report2.root_label
        assert proof1 == proof2

    def test_unlabeled_tree_raises_on_proof(self):
        tree = Mtt.build(BASIC)
        with pytest.raises(ProofError):
            generate_proof(tree, Prefix.parse("0.0.0.0/2"), 0)


class TestGoldenRoots:
    """Anchors captured from the pre-optimization implementation: the
    flattened schedule, the C keystream (``bench-pool`` is a 10-byte
    seed, so it takes that path where ``cryptography`` is installed) and
    the worker pool must all preserve the exact CSPRNG draw order and
    therefore these roots."""

    GOLDEN_BASIC = "7c275377aa7845b2d22b413297edb5700baec380"
    GOLDEN_WIDE = "d56c957599fc43ecd2cb483563e01b49e59ea4d8"
    #: The root of the §7.3 labeling workload, 2 000 prefixes × 50
    #: one-bits (167 681 nodes), the figure the docs quote.
    GOLDEN_BENCH = "a4254237340ba931616aeea156dbff1d2c2b9f94"

    def test_basic_anchor(self):
        tree = Mtt.build(BASIC)
        report = label_tree(tree, Rc4Csprng(b"golden-seed"))
        assert report.root_label.hex() == self.GOLDEN_BASIC

    def test_wide_anchor(self):
        tree = Mtt.build(wide_entries())
        report = label_tree(tree, Rc4Csprng(b"golden-wide"))
        assert report.root_label.hex() == self.GOLDEN_WIDE

    def test_bench_anchor(self):
        tree = Mtt.build(bench_entries())
        report = label_tree(tree, Rc4Csprng(b"bench-pool"))
        assert report.root_label.hex() == self.GOLDEN_BENCH

    def test_generic_traversal_matches_anchor(self):
        # compute_label is the reference implementation the fast
        # schedule-driven pass must agree with.
        tree = Mtt.build(wide_entries())
        assign_randomness(tree, Rc4Csprng(b"golden-wide"))
        assert compute_label(tree.root).hex() == self.GOLDEN_WIDE

    def test_generic_traversal_recomputes_stale_labels(self):
        # assign_randomness resets no label, so the reference must
        # recompute every node rather than trust what an earlier round
        # left on it.
        tree = Mtt.build(wide_entries())
        label_tree(tree, Rc4Csprng(b"an-earlier-round"))
        assign_randomness(tree, Rc4Csprng(b"golden-wide"))
        assert compute_label(tree.root).hex() == self.GOLDEN_WIDE


class TestMerkleEngines:
    """The Merkle engine (CPython's builtin SHA-512) against
    ``hashlib.sha512`` (OpenSSL), the pinned reference: the serial
    kernel and the per-node reference give each golden root and the
    same label on every node under either."""

    ANCHORS = {
        "basic": (lambda: BASIC, b"golden-seed",
                  TestGoldenRoots.GOLDEN_BASIC),
        "wide": (wide_entries, b"golden-wide", TestGoldenRoots.GOLDEN_WIDE),
        "bench": (bench_entries, b"bench-pool",
                  TestGoldenRoots.GOLDEN_BENCH),
    }

    @pytest.mark.parametrize("anchor", ["basic", "wide", "bench"])
    def test_every_label_equal_under_both_engines(self, anchor,
                                                  monkeypatch):
        entries, seed, golden = self.ANCHORS[anchor]
        tree = Mtt.build(entries())
        nodes = list(tree.iter_nodes())
        builtin = label_tree(tree, Rc4Csprng(seed)).root_label
        labels = [node.label for node in nodes]
        monkeypatch.setattr(hashing, "merkle_sha512", hashlib.sha512)
        reference = label_tree(tree, Rc4Csprng(seed)).root_label
        assert builtin.hex() == reference.hex() == golden
        assert [node.label for node in nodes] == labels
        assert compute_label(tree.root) == reference
        assert [node.label for node in nodes] == labels

    @pytest.mark.parametrize("engine", [hashlib.sha512, hashlib.sha384],
                             ids=["sha512", "sha384"])
    def test_pool_started_after_the_swap_hashes_on_it(self, engine,
                                                      monkeypatch):
        """Pool workers keep the engine bound when they forked, so the
        swap must come before the pool starts; a pool started after it
        labels on the swapped engine.  Truncated SHA-384 tells the two
        apart: a worker still on SHA-512 would break the equality with
        the serial kernel."""
        monkeypatch.setattr(hashing, "merkle_sha512", engine)
        seed = b"golden-wide"
        serial = label_tree(Mtt.build(wide_entries()),
                            Rc4Csprng(seed)).root_label
        pool = LabelPool(2, timeout=10.0)
        try:
            par = label_tree_parallel(Mtt.build(wide_entries()),
                                      Rc4Csprng(seed), workers=2,
                                      cut_depth=3, pool=pool)
        finally:
            pool.close()
        assert par.mode == "process"
        assert par.root_label == serial
        assert (serial.hex() == TestGoldenRoots.GOLDEN_WIDE) == \
            (engine is hashlib.sha512)


class TestRealPool:
    """Process-pool, serial, and reference labeling must all produce
    byte-identical roots from the same seed."""

    @pytest.fixture(scope="class")
    def pool(self):
        pool = LabelPool(3, timeout=10.0)
        yield pool
        pool.close()

    def wide_tree(self):
        from repro.traces.workload import generate_prefixes
        entries = {p: [1, 0, 1] for p in generate_prefixes(150, seed=3)}
        return Mtt.build(entries)

    def test_process_pool_matches_serial(self, pool):
        tree = self.wide_tree()
        serial = label_tree(tree, Rc4Csprng(b"pool"))
        tree2 = self.wide_tree()
        par = label_tree_parallel(tree2, Rc4Csprng(b"pool"), workers=3,
                                  cut_depth=3, pool=pool)
        assert par.root_label == serial.root_label
        assert par.jobs > 1
        assert par.mode == "process"

    def test_single_worker_uses_serial_path(self):
        tree = self.wide_tree()
        par = label_tree_parallel(tree, Rc4Csprng(b"pool"), workers=1)
        assert par.mode == "serial"
        assert par.jobs == 1

    def test_pool_labels_support_proofs(self, pool):
        # Labels must land on the nodes so proof generation works the
        # same regardless of labeling mode.
        tree = self.wide_tree()
        par = label_tree_parallel(tree, Rc4Csprng(b"pool"), workers=3,
                                  cut_depth=3, pool=pool)
        prefix = tree.prefixes[0]
        proof = generate_proof(tree, prefix, 0)
        assert verify_proof(par.root_label, proof, expected_k=3) == 1

    def test_dispatch_helper(self, pool):
        # The name the recorder and the proof generator call: serial
        # without a pool, the pool's workers with one.
        from repro.spider.recorder import label_tree_with_workers
        tree = self.wide_tree()
        serial = label_tree_with_workers(tree, Rc4Csprng(b"pool"))
        tree2 = self.wide_tree()
        pooled = label_tree_with_workers(tree2, Rc4Csprng(b"pool"),
                                         workers=3, cut_depth=3,
                                         pool=pool)
        assert serial.mode == "serial" and pooled.mode == "process"
        assert serial.root_label == pooled.root_label

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            label_tree_parallel(Mtt.build(BASIC), Rc4Csprng(b"s"),
                                workers=0)


class TestLabelDigestCache:
    def test_cached_verification_matches_uncached(self):
        tree, report = build_labeled(BASIC)
        cache = LabelDigestCache()
        for prefix, bits in BASIC.items():
            for class_index, bit in enumerate(bits):
                proof = generate_proof(tree, prefix, class_index)
                assert verify_proof(report.root_label, proof,
                                    expected_k=3, cache=cache) == bit
        assert cache.hits > 0  # shared steps were actually reused

    def test_cache_does_not_accept_forgeries(self):
        tree, report = build_labeled(BASIC)
        cache = LabelDigestCache()
        proof = generate_proof(tree, Prefix.parse("0.0.0.0/2"), 0)
        # Warm the cache with the honest proof first.
        assert verify_proof(report.root_label, proof,
                            cache=cache) is not None
        forged = MttBitProof(prefix=proof.prefix,
                             class_index=proof.class_index,
                             bit=1 - proof.bit, blinding=proof.blinding,
                             steps=proof.steps)
        assert verify_proof(report.root_label, forged,
                            cache=cache) is None


class TestProofs:
    def test_all_bits_provable(self):
        tree, report = build_labeled(BASIC)
        for prefix, bits in BASIC.items():
            for class_index, bit in enumerate(bits):
                proof = generate_proof(tree, prefix, class_index)
                assert verify_proof(report.root_label, proof,
                                    expected_k=3) == bit

    def test_proof_for_absent_prefix_rejected(self):
        tree, _ = build_labeled(BASIC)
        with pytest.raises(ProofError):
            generate_proof(tree, Prefix.parse("10.0.0.0/8"), 0)

    def test_proof_for_out_of_range_class_rejected(self):
        tree, _ = build_labeled(BASIC)
        with pytest.raises(ProofError):
            generate_proof(tree, Prefix.parse("0.0.0.0/2"), 7)

    def test_flipped_bit_rejected(self):
        tree, report = build_labeled(BASIC)
        proof = generate_proof(tree, Prefix.parse("0.0.0.0/2"), 0)
        forged = MttBitProof(prefix=proof.prefix,
                             class_index=proof.class_index,
                             bit=1 - proof.bit, blinding=proof.blinding,
                             steps=proof.steps)
        assert verify_proof(report.root_label, forged) is None

    def test_wrong_root_rejected(self):
        tree, _ = build_labeled(BASIC, seed=b"s1")
        _, other = build_labeled(BASIC, seed=b"s2")
        proof = generate_proof(tree, Prefix.parse("0.0.0.0/2"), 0)
        assert verify_proof(other.root_label, proof) is None

    def test_proof_not_replayable_for_other_prefix(self):
        tree, report = build_labeled(BASIC)
        proof = generate_proof(tree, Prefix.parse("0.0.0.0/2"), 0)
        forged = MttBitProof(prefix=Prefix.parse("128.0.0.0/2"),
                             class_index=proof.class_index,
                             bit=proof.bit, blinding=proof.blinding,
                             steps=proof.steps)
        assert verify_proof(report.root_label, forged) is None

    def test_proof_not_replayable_for_other_class(self):
        tree, report = build_labeled(BASIC)
        proof = generate_proof(tree, Prefix.parse("0.0.0.0/2"), 0)
        forged = MttBitProof(prefix=proof.prefix, class_index=1,
                             bit=proof.bit, blinding=proof.blinding,
                             steps=proof.steps)
        assert verify_proof(report.root_label, forged) is None

    def test_wrong_k_rejected(self):
        tree, report = build_labeled(BASIC)
        proof = generate_proof(tree, Prefix.parse("0.0.0.0/2"), 0)
        assert verify_proof(report.root_label, proof,
                            expected_k=5) is None

    def test_truncated_path_rejected(self):
        tree, report = build_labeled(BASIC)
        proof = generate_proof(tree, Prefix.parse("160.0.0.0/3"), 0)
        forged = MttBitProof(prefix=proof.prefix,
                             class_index=proof.class_index,
                             bit=proof.bit, blinding=proof.blinding,
                             steps=proof.steps[:-1])
        assert verify_proof(report.root_label, forged) is None

    def test_proof_size_scales_with_k(self):
        """§7.3: each bit proof with k classes contributes ≈ 20·k bytes."""
        sizes = {}
        for k in (2, 10, 50):
            entries = {p: [1] * k for p in BASIC}
            tree, _ = build_labeled(entries)
            proof = generate_proof(tree, Prefix.parse("0.0.0.0/2"), 0)
            sizes[k] = len(proof.encode())
        assert sizes[50] - sizes[10] == pytest.approx(40 * 20, abs=20)
        assert sizes[10] > sizes[2]

    def test_proof_reveals_no_other_prefix(self):
        """Privacy: proofs from trees differing in *other* prefixes are
        structurally identical in size and shape for the same prefix."""
        small = {Prefix.parse("128.0.0.0/1"): [1, 0]}
        big = dict(small)
        big[Prefix.parse("64.0.0.0/2")] = [1, 1]  # sibling subtree
        tree_a, _ = build_labeled(small, seed=b"x")
        tree_b, _ = build_labeled(big, seed=b"y")
        proof_a = generate_proof(tree_a, Prefix.parse("128.0.0.0/1"), 0)
        proof_b = generate_proof(tree_b, Prefix.parse("128.0.0.0/1"), 0)
        assert len(proof_a.steps) == len(proof_b.steps)
        assert len(proof_a.encode()) == len(proof_b.encode())
        assert [len(s.child_labels) for s in proof_a.steps] == \
            [len(s.child_labels) for s in proof_b.steps]


@st.composite
def random_entries(draw, max_k=6):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, max_k))
    prefixes = draw(st.sets(
        st.lists(st.integers(0, 1), min_size=0, max_size=10).map(
            lambda bits: Prefix.from_bits(tuple(bits))),
        min_size=1, max_size=n))
    return {
        p: [draw(st.integers(0, 1)) for _ in range(k)]
        for p in prefixes
    }


class TestProofProperties:
    @settings(max_examples=25, deadline=None)
    @given(random_entries(), st.data())
    def test_roundtrip_property(self, entries, data):
        tree, report = build_labeled(entries)
        prefix = data.draw(st.sampled_from(sorted(entries)))
        k = len(entries[prefix])
        class_index = data.draw(st.integers(0, k - 1))
        proof = generate_proof(tree, prefix, class_index)
        assert verify_proof(report.root_label, proof, expected_k=k) == \
            entries[prefix][class_index]

    @settings(max_examples=60, deadline=None)
    @given(random_entries(max_k=12), st.data())
    def test_one_walk_gives_the_per_class_proofs(self, entries, data):
        """``generate_proofs`` is ``generate_proof`` per class, field for
        field and byte for byte, and fails where that would first fail
        (absent prefix, class out of range, unlabeled tree)."""
        tree = Mtt.build(entries)
        if data.draw(st.booleans(), label="labeled"):
            label_tree(tree, Rc4Csprng(b"walk"))
        k = len(next(iter(entries.values())))
        # No entry prefix is longer than 10 bits.
        absent = Prefix.from_bits((1,) * 11)
        prefix = data.draw(st.sampled_from(sorted(entries) + [absent]))
        classes = data.draw(st.lists(st.integers(-1, k), max_size=k + 2))
        try:
            expected = [generate_proof(tree, prefix, c) for c in classes]
        except ProofError as exc:
            with pytest.raises(ProofError) as raised:
                generate_proofs(tree, prefix, classes)
            assert str(raised.value) == str(exc)
            return
        proofs = generate_proofs(tree, prefix, classes)
        assert proofs == expected
        assert [p.encode() for p in proofs] == \
            [p.encode() for p in expected]

    @settings(max_examples=25, deadline=None)
    @given(random_entries(), st.data())
    def test_binding_property(self, entries, data):
        tree, report = build_labeled(entries)
        prefix = data.draw(st.sampled_from(sorted(entries)))
        class_index = data.draw(st.integers(0, len(entries[prefix]) - 1))
        proof = generate_proof(tree, prefix, class_index)
        forged = MttBitProof(prefix=prefix, class_index=class_index,
                             bit=1 - proof.bit, blinding=proof.blinding,
                             steps=proof.steps)
        assert verify_proof(report.root_label, forged) is None
