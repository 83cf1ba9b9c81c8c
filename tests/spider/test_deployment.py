"""Integration tests: recorder, proof generator, and checker end to end
on the Figure 5 deployment."""

import pytest

from repro.netsim.topology import FOCUS_AS
from repro.obs.registry import get_registry
from repro.spider.log import EntryKind

from .conftest import FEED, ORIGINATED, P, Q


class TestRecorderMirroring:
    def test_spider_messages_flow(self, deployment):
        network, dep = deployment
        node = dep.node(FOCUS_AS)
        # AS 5 received announcements from its neighbors.
        assert node.recorder.state.imports
        # And sent some of its own (logged).
        assert node.recorder.log.of_kind(EntryKind.SENT_ANNOUNCE)

    def test_acks_flow_back(self, deployment):
        network, dep = deployment
        node = dep.node(FOCUS_AS)
        assert node.recorder.log.of_kind(EntryKind.RECV_ACK)
        assert not node.recorder.overdue_acks()

    def test_mirror_matches_bgp(self, deployment):
        network, dep = deployment
        for asn, node in dep.nodes.items():
            assert node.recorder.mirror_consistent(network.speaker(asn))

    def test_no_alarms_in_honest_run(self, deployment):
        network, dep = deployment
        for node in dep.nodes.values():
            assert node.recorder.alarms == []

    def test_log_chain_intact(self, deployment):
        network, dep = deployment
        for node in dep.nodes.values():
            node.recorder.log.verify_chain()

    def test_imports_match_neighbor_exports(self, deployment):
        network, dep = deployment
        node5 = dep.node(FOCUS_AS)
        for neighbor, table in node5.recorder.state.imports.items():
            peer_state = dep.node(neighbor).recorder.state
            for prefix, route in table.items():
                sent = peer_state.exports.get(FOCUS_AS, {}).get(prefix)
                assert sent is not None
                assert sent.to_bytes() == route.to_bytes()


class TestCommitments:
    def test_commitment_broadcast_to_neighbors(self, deployment):
        network, dep = deployment
        record = dep.commit_now(FOCUS_AS)
        network.settle()
        for neighbor in network.topology.neighbors(FOCUS_AS):
            commitment = dep.node(neighbor).commitment_from(
                FOCUS_AS, record.commit_time)
            assert commitment is not None
            assert commitment.root == record.root

    def test_commitment_seed_logged_compactly(self, deployment):
        network, dep = deployment
        node = dep.node(FOCUS_AS)
        dep.commit_now(FOCUS_AS)
        entries = node.recorder.log.of_kind(EntryKind.COMMITMENT)
        assert entries
        # §7.7: each commitment adds only the seed (plus tiny framing).
        assert all(e.size_bytes <= 48 for e in entries)

    def test_successive_commitments_differ(self, deployment):
        network, dep = deployment
        node = dep.node(FOCUS_AS)
        network.sim.clock.advance_to(network.sim.now + 1.0)
        r1 = dep.commit_now(FOCUS_AS)
        network.sim.clock.advance_to(network.sim.now + 1.0)
        r2 = dep.commit_now(FOCUS_AS)
        # Same routing state, fresh blinding → different roots (§5.3).
        assert r1.root != r2.root

    def test_periodic_commitments_fire(self):
        from repro.netsim.network import Network
        from repro.netsim.topology import figure5_topology
        from repro.spider.config import SpiderConfig
        from repro.spider.node import SpiderDeployment, evaluation_scheme
        network = Network(figure5_topology())
        dep = SpiderDeployment(network, scheme=evaluation_scheme(5),
                               config=SpiderConfig(commit_interval=60.0))
        network.originate(9, P)
        network.settle()
        dep.start(until=200.0)
        network.run_until(205.0)
        assert len(dep.node(FOCUS_AS).recorder.commitments) == 3


class TestReconstruction:
    def test_replay_reproduces_root(self, deployment):
        network, dep = deployment
        node = dep.node(FOCUS_AS)
        record = dep.commit_now(FOCUS_AS)
        reconstruction = node.proofgen.reconstruct(record.commit_time)
        assert reconstruction.root == record.root

    def test_reconstruct_unknown_time_rejected(self, deployment):
        network, dep = deployment
        node = dep.node(FOCUS_AS)
        with pytest.raises(ValueError):
            node.proofgen.reconstruct(123456.789)

    def test_old_commitments_still_reconstructible(self, deployment):
        network, dep = deployment
        node = dep.node(FOCUS_AS)
        history = [r.commit_time for r in node.recorder.commitments]
        for commit_time in history[:3]:
            reconstruction = node.proofgen.reconstruct(commit_time)
            assert reconstruction.root == next(
                r.root for r in node.recorder.commitments
                if r.commit_time == commit_time)

    def test_reconstruction_cache_hits_on_repeat(self, deployment):
        network, dep = deployment
        node = dep.node(FOCUS_AS)
        record = dep.commit_now(FOCUS_AS)
        gen = node.proofgen
        first = gen.reconstruct(record.commit_time)
        hits_before = gen.cache_hits
        second = gen.reconstruct(record.commit_time)
        assert second is first  # same object, no rebuild
        assert gen.cache_hits == hits_before + 1
        assert 0.0 < gen.cache_hit_rate <= 1.0

    def test_reconstruction_cache_bypass(self, deployment):
        """A generator of its own rebuilds from the log: a new tree,
        the same root."""
        from repro.spider.proofgen import ProofGenerator

        network, dep = deployment
        node = dep.node(FOCUS_AS)
        record = dep.commit_now(FOCUS_AS)
        cached = node.proofgen.reconstruct(record.commit_time)
        fresh = ProofGenerator(node.recorder).reconstruct(record.commit_time)
        assert fresh is not cached
        assert fresh.root == cached.root

    def test_reconstruction_cache_evicts_lru(self, deployment):
        """One reconstruction is kept: a second commit time replaces
        the first, and asking for the first again rebuilds it."""
        network, dep = deployment
        gen = dep.node(FOCUS_AS).proofgen
        history = []
        for _ in range(2):
            network.sim.clock.advance_to(network.sim.now + 1.0)
            history.append(dep.commit_now(FOCUS_AS).commit_time)
        first = gen.reconstruct(history[0])
        second = gen.reconstruct(history[1])
        assert second.commit_time == history[1]
        misses = gen.cache_misses
        assert gen.reconstruct(history[1]) is second
        again = gen.reconstruct(history[0])
        assert gen.cache_misses == misses + 1
        assert again is not first and again.root == first.root


class TestVerification:
    def test_honest_verification_clean_everywhere(self, deployment):
        network, dep = deployment
        for elector in network.topology.ases:
            dep.commit_now(elector)
            outcomes = dep.verify(elector)
            for outcome in outcomes:
                assert outcome.report.ok, \
                    (f"AS{outcome.neighbor} vs AS{elector}: "
                     f"{[str(v) for v in outcome.report.verdicts]}")

    def test_producer_proofs_cover_all_inputs(self, deployment):
        network, dep = deployment
        dep.commit_now(FOCUS_AS)
        outcomes = dep.verify(FOCUS_AS)
        node = dep.node(FOCUS_AS)
        for outcome in outcomes:
            advertised = node.recorder.state.imports.get(
                outcome.neighbor, {})
            assert set(outcome.proofs.producer_proofs) == set(advertised)

    def test_single_prefix_verification(self, deployment):
        """The §7.3 'shortest route to Google' case: one prefix only."""
        network, dep = deployment
        node = dep.node(FOCUS_AS)
        record = dep.commit_now(FOCUS_AS)
        reconstruction = node.proofgen.reconstruct(record.commit_time)
        proofs = node.proofgen.proofs_for_prefix(reconstruction, 7, P)
        full = node.proofgen.proofs_for(reconstruction, 7)
        assert proofs.proof_count() < full.proof_count()
        assert proofs.wire_size() < full.wire_size()
        # The single-prefix set still checks out for that prefix.
        neighbor_node = dep.node(7)
        commitment = neighbor_node.commitment_from(
            FOCUS_AS, record.commit_time) or record.message
        view = neighbor_node.view_at(record.commit_time)
        report = neighbor_node.checker.check(
            commitment, proofs,
            my_exports_to_elector={
                p: r for p, r in view.exports.get(FOCUS_AS, {}).items()
                if p == P},
            my_imports_from_elector={
                p: r for p, r in view.imports.get(FOCUS_AS, {}).items()
                if p == P},
            promise=node.recorder.promises.get(7))
        assert report.ok

    def test_watch_prefix_with_null_offer(self, deployment):
        """A consumer may demand ⊥-offer proofs for a prefix it knows
        about; a clean elector passes."""
        network, dep = deployment
        record = dep.commit_now(FOCUS_AS)
        # AS 2 never receives ORIGINATED back from AS 5 (it supplied the
        # better route itself or valley-freedom suppressed it); it can
        # still watch the prefix.
        outcomes = dep.verify(FOCUS_AS, neighbors=[2],
                              watch={2: [ORIGINATED]})
        assert outcomes[0].report.ok

    def test_proof_traffic_metered(self, deployment):
        network, dep = deployment
        from repro.spider.node import PROOF_TRAFFIC
        dep.commit_now(FOCUS_AS)

        def proof_bytes():
            return get_registry().total("traffic_bytes_total",
                                        node=f"as{FOCUS_AS}",
                                        category=PROOF_TRAFFIC)
        before = proof_bytes()
        dep.verify(FOCUS_AS)
        assert proof_bytes() > before

    def test_verify_without_commitment_rejected(self, deployment):
        network, dep = deployment
        with pytest.raises(ValueError):
            # AS 10 is a leaf; give it no commitments... it may have
            # some from earlier tests, so use a fresh deployment check:
            from repro.netsim.network import Network
            from repro.netsim.topology import figure5_topology
            from repro.spider.node import SpiderDeployment, \
                evaluation_scheme
            from repro.spider.config import SpiderConfig
            net2 = Network(figure5_topology())
            dep2 = SpiderDeployment(net2, scheme=evaluation_scheme(5),
                                    config=SpiderConfig())
            dep2.verify(FOCUS_AS)
