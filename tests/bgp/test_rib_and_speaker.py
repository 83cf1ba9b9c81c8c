"""Tests for the RIBs and the speaker's update processing."""

import pytest

from repro.bgp.messages import Announce, Withdraw
from repro.bgp.policy import Relation, gao_rexford_policy
from repro.bgp.prefix import Prefix
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib, rib_diff
from repro.bgp.route import Route
from repro.bgp.speaker import Speaker

P = Prefix.parse("203.0.113.0/24")
Q = Prefix.parse("198.51.100.0/24")


def make_speaker(asn=5, relations=None):
    relations = relations or {1: Relation.CUSTOMER, 2: Relation.PEER,
                              3: Relation.PROVIDER}
    imports, exports = gao_rexford_policy(asn, relations)
    speaker = Speaker(asn, imports, exports)
    for neighbor in relations:
        speaker.add_neighbor(neighbor)
    return speaker


def announce(sender, receiver, prefix=P, path=None):
    path = path or (sender, 9)
    return Announce(sender=sender, receiver=receiver,
                    route=Route(prefix=prefix, as_path=tuple(path),
                                neighbor=sender))


class TestAdjRibIn:
    def test_put_and_candidates(self):
        rib = AdjRibIn()
        r1 = Route(prefix=P, as_path=(1, 9), neighbor=1)
        r2 = Route(prefix=P, as_path=(2, 9), neighbor=2)
        rib.put(1, r1)
        rib.put(2, r2)
        assert set(rib.candidates(P)) == {r1, r2}
        assert len(rib) == 2

    def test_replacement_keeps_one_route_per_neighbor(self):
        rib = AdjRibIn()
        rib.put(1, Route(prefix=P, as_path=(1, 9), neighbor=1))
        newer = Route(prefix=P, as_path=(1, 8), neighbor=1)
        rib.put(1, newer)
        assert rib.candidates(P) == [newer]

    def test_remove_clears_empty_prefix_entries(self):
        rib = AdjRibIn()
        rib.put(1, Route(prefix=P, as_path=(1, 9), neighbor=1))
        assert rib.remove(1, P) is not None
        assert rib.prefixes() == set()
        assert rib.remove(1, P) is None

    def test_drop_neighbor(self):
        rib = AdjRibIn()
        rib.put(1, Route(prefix=P, as_path=(1, 9), neighbor=1))
        rib.put(1, Route(prefix=Q, as_path=(1, 9), neighbor=1))
        rib.put(2, Route(prefix=P, as_path=(2, 9), neighbor=2))
        affected = rib.drop_neighbor(1)
        assert set(affected) == {P, Q}
        assert len(rib) == 1


class TestLocRib:
    def test_put_get_remove(self):
        rib = LocRib()
        r = Route(prefix=P, as_path=(1, 9), neighbor=1)
        rib.put(r)
        assert rib.get(P) == r
        assert rib.remove(P) == r
        assert rib.get(P) is None

    def test_snapshot_size_counts_encoded_routes(self):
        rib = LocRib()
        r = Route(prefix=P, as_path=(1, 9), neighbor=1)
        rib.put(r)
        assert rib.snapshot_size() == len(r.to_bytes())


class TestRibDiff:
    def test_diff_produces_minimal_updates(self):
        r1 = Route(prefix=P, as_path=(1, 9), neighbor=1)
        r1b = Route(prefix=P, as_path=(1, 8), neighbor=1)
        r2 = Route(prefix=Q, as_path=(1, 9), neighbor=1)
        announces, withdraws = rib_diff({P: r1, Q: r2}, {P: r1b})
        assert announces == [r1b]
        assert withdraws == [Q]

    def test_identical_tables_no_updates(self):
        r1 = Route(prefix=P, as_path=(1, 9), neighbor=1)
        assert rib_diff({P: r1}, {P: r1}) == ([], [])


class TestSpeaker:
    def test_announce_installs_and_propagates(self):
        speaker = make_speaker()
        out = speaker.receive(announce(1, 5))
        assert speaker.best(P) is not None
        # Customer route goes to every other neighbor (Gao-Rexford).
        receivers = {u.receiver for u in out}
        assert receivers == {2, 3}
        assert all(isinstance(u, Announce) for u in out)
        assert all(u.route.as_path[0] == 5 for u in out)

    def test_peer_route_propagates_only_to_customer(self):
        speaker = make_speaker()
        out = speaker.receive(announce(2, 5))
        assert {u.receiver for u in out if isinstance(u, Announce)} == {1}

    def test_withdraw_removes_and_propagates(self):
        speaker = make_speaker()
        speaker.receive(announce(1, 5))
        out = speaker.receive(Withdraw(sender=1, receiver=5, prefix=P))
        assert speaker.best(P) is None
        assert {u.receiver for u in out} == {2, 3}
        assert all(isinstance(u, Withdraw) for u in out)

    def test_better_route_replaces_advertisement(self):
        speaker = make_speaker()
        speaker.receive(announce(3, 5, path=(3, 8, 9)))      # provider
        out = speaker.receive(announce(1, 5, path=(1, 9)))   # customer
        # The customer route wins (higher local-pref) and is re-announced.
        assert speaker.best(P).neighbor == 1
        announced = [u for u in out if isinstance(u, Announce)]
        assert {u.receiver for u in announced} == {2, 3}

    def test_worse_route_triggers_no_updates(self):
        speaker = make_speaker()
        speaker.receive(announce(1, 5, path=(1, 9)))
        out = speaker.receive(announce(3, 5, path=(3, 8, 7, 9)))
        assert out == []

    def test_losing_best_falls_back_to_second(self):
        speaker = make_speaker()
        speaker.receive(announce(1, 5, path=(1, 9)))
        speaker.receive(announce(2, 5, path=(2, 9)))
        speaker.receive(Withdraw(sender=1, receiver=5, prefix=P))
        assert speaker.best(P).neighbor == 2
        # Peer route must have been withdrawn from peer/provider and
        # announced only to the customer.
        assert speaker.advertised_to(1, P) is not None
        assert speaker.advertised_to(2, P) is None
        assert speaker.advertised_to(3, P) is None

    def test_origination(self):
        speaker = make_speaker()
        out = speaker.originate(P)
        assert speaker.best(P).as_path == (5,)
        assert {u.receiver for u in out} == {1, 2, 3}

    def test_withdraw_origin(self):
        speaker = make_speaker()
        speaker.originate(P)
        out = speaker.withdraw_origin(P)
        assert speaker.best(P) is None
        assert all(isinstance(u, Withdraw) for u in out)

    def test_filtered_import_still_recorded_raw(self):
        # A route with our own AS in the path is rejected by import policy
        # but still visible in the raw RIB (it was advertised to us).
        speaker = make_speaker()
        bad = Announce(sender=1, receiver=5,
                       route=Route(prefix=P, as_path=(1, 5, 9), neighbor=1))
        speaker.receive(bad)
        assert speaker.received_from(1, P) is not None
        assert speaker.best(P) is None

    def test_rejects_update_for_other_as(self):
        speaker = make_speaker()
        with pytest.raises(ValueError):
            speaker.receive(announce(1, 6))

    def test_rejects_update_from_stranger(self):
        speaker = make_speaker()
        with pytest.raises(ValueError):
            speaker.receive(announce(9, 5))

    def test_observers_see_message_flow(self):
        speaker = make_speaker()
        seen_in, seen_out = [], []
        speaker.on_receive(seen_in.append)
        speaker.on_send(seen_out.append)
        speaker.receive(announce(1, 5))
        assert len(seen_in) == 1
        assert len(seen_out) == 2

    def test_remove_neighbor_withdraws_its_routes(self):
        speaker = make_speaker()
        speaker.receive(announce(1, 5))
        out = speaker.remove_neighbor(1)
        assert speaker.best(P) is None
        assert all(isinstance(u, Withdraw) for u in out)
        assert 1 not in {u.receiver for u in out}

    def test_duplicate_announce_suppressed(self):
        speaker = make_speaker()
        speaker.receive(announce(1, 5))
        out = speaker.receive(announce(1, 5))
        assert out == []

    def test_self_peering_rejected(self):
        speaker = make_speaker()
        with pytest.raises(ValueError):
            speaker.add_neighbor(5)
