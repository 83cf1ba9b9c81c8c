"""Tests for the loose-synchronization input windows (§6.4), and for
the receive-side timestamp window that makes a timestamp a nonce
(§6.2)."""

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.route import NULL_ROUTE, Route
from repro.core.classes import ClassScheme
from repro.core.promise import total_order_promise
from repro.crypto.keys import KeyRegistry, make_identity
from repro.crypto.signatures import Signer
from repro.netsim.clock import SimClock
from repro.spider.config import SpiderConfig
from repro.spider.node import evaluation_scheme
from repro.spider.recorder import Recorder
from repro.spider.windows import RouteChange, admissible_inputs, \
    choose_input, stable_in_window, value_at
from repro.spider.wire import SpiderAnnounce, SpiderWithdraw

P = Prefix.parse("203.0.113.0/24")


def route(length):
    return Route(prefix=P, as_path=tuple(range(100, 100 + length)),
                 neighbor=100)


def scheme():
    def classify(r):
        if r is NULL_ROUTE:
            return 0
        return max(0, 4 - r.path_length)  # shorter = higher, up to 3
    return ClassScheme(labels=("c0", "c1", "c2", "c3"),
                       classify_fn=classify)


R1, R2, R3 = route(3), route(2), route(1)

# The §6.4 example: r1 at t1, withdrawn at t2, replaced by r2 at t3.
HISTORY = [RouteChange(10.0, R1), RouteChange(20.0, R2)]
FLAPPY = [RouteChange(10.0, R1), RouteChange(15.0, NULL_ROUTE),
          RouteChange(20.0, R2)]


class TestValueAt:
    def test_null_before_first_change(self):
        assert value_at(HISTORY, 5.0) is NULL_ROUTE

    def test_tracks_changes(self):
        assert value_at(HISTORY, 12.0) == R1
        assert value_at(HISTORY, 25.0) == R2

    def test_change_effective_at_its_time(self):
        assert value_at(HISTORY, 10.0) == R1


class TestAdmissibleInputs:
    def test_stable_window_single_value(self):
        assert admissible_inputs(HISTORY, commit_time=14.0, delta=2.0) \
            == [R1]

    def test_paper_example_three_choices(self):
        """Alice may choose r1, ⊥, or r2 when the flap fits the window."""
        values = admissible_inputs(FLAPPY, commit_time=21.0, delta=10.0)
        assert values == [R1, NULL_ROUTE, R2]

    def test_window_boundary_inclusive(self):
        values = admissible_inputs(HISTORY, commit_time=20.0, delta=5.0)
        assert values == [R1, R2]

    def test_window_start_before_first_announcement(self):
        values = admissible_inputs(FLAPPY, commit_time=21.0, delta=12.0)
        assert values == [NULL_ROUTE, R1, NULL_ROUTE, R2]

    def test_duplicate_reannouncements_collapsed(self):
        history = [RouteChange(10.0, R1), RouteChange(12.0, R1)]
        assert admissible_inputs(history, 15.0, 10.0) == [NULL_ROUTE, R1]

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            admissible_inputs(HISTORY, 10.0, -1.0)


class TestStability:
    def test_stable_when_no_changes_in_window(self):
        assert stable_in_window(HISTORY, commit_time=15.0, delta=2.0)

    def test_unstable_when_change_in_window(self):
        assert not stable_in_window(HISTORY, commit_time=20.5, delta=2.0)


class TestChooseInput:
    def test_stable_route_no_freedom(self):
        """'When the routes are stable, the elector has no freedom at
        all' — the only admissible input is the current value."""
        promise = total_order_promise(scheme())
        chosen = choose_input(HISTORY, commit_time=15.0, delta=1.0,
                              output=R1, promises=[promise])
        assert chosen == R1

    def test_picks_first_non_preferred_input(self):
        promise = total_order_promise(scheme())
        # Output is R2 (length 2, class 2).  R1 (length 3, class 1) would
        # not have been preferred, so it is an acceptable explanation.
        chosen = choose_input(FLAPPY, commit_time=21.0, delta=10.0,
                              output=R2, promises=[promise])
        assert chosen == R1

    def test_none_when_every_input_beats_output(self):
        promise = total_order_promise(scheme())
        # Output of class 1 while the window only ever held R3 (class 3).
        history = [RouteChange(10.0, R3)]
        chosen = choose_input(history, commit_time=15.0, delta=1.0,
                              output=R1, promises=[promise])
        assert chosen is None

    def test_output_null_with_flap_explained_by_null_gap(self):
        promise = total_order_promise(scheme())
        # The withdrawal gap inside the window explains a ⊥ output...
        chosen = choose_input(FLAPPY, commit_time=21.0, delta=10.0,
                              output=NULL_ROUTE, promises=[promise])
        # ...but R1 held at window start is preferred over ⊥, so the
        # selection must skip it and use the ⊥ gap.
        assert chosen is NULL_ROUTE

    def test_no_promises_accepts_anything(self):
        chosen = choose_input(FLAPPY, commit_time=21.0, delta=10.0,
                              output=NULL_ROUTE, promises=[])
        assert chosen == R1  # first admissible, nothing forbids it


class TestReceiveTimestampWindow:
    """A validly signed message is only fresh near its timestamp: an
    old (or far-future) one replayed later must not touch the log or
    the committed state, whichever message type it is."""

    ELECTOR, PRODUCER, NOW = 5, 7, 1000.0

    @pytest.fixture()
    def world(self):
        registry = KeyRegistry()
        identity = make_identity(self.ELECTOR, registry=registry,
                                 bits=512, seed=910)
        producer = Signer(make_identity(self.PRODUCER, registry=registry,
                                        bits=512, seed=911))
        clock = SimClock(self.NOW)
        sent = []
        scheme = evaluation_scheme(5)
        recorder = Recorder(
            identity=identity, registry=registry, scheme=scheme,
            promises={self.PRODUCER: total_order_promise(scheme)},
            config=SpiderConfig(), clock=clock,
            transport=lambda receiver, messages: sent.extend(messages))
        live = Route(prefix=P, as_path=(self.PRODUCER, 9),
                     neighbor=self.PRODUCER)
        recorder.receive(SpiderAnnounce.make(
            producer, self.ELECTOR, self.NOW, live, None))
        assert recorder.state.imports[self.PRODUCER][P] == live
        del sent[:]
        return recorder, producer, sent

    @pytest.mark.parametrize("stamp", [5.0, 1e6],
                             ids=["stale", "far-future"])
    def test_replayed_withdraw_rejected(self, world, stamp):
        recorder, producer, sent = world
        entries = len(recorder.log)
        recorder.receive(SpiderWithdraw.make(
            producer, self.ELECTOR, stamp, P))
        assert recorder.alarms == [
            f"stale timestamp from AS{self.PRODUCER}"]
        assert len(recorder.log) == entries      # no log entry
        assert sent == []                        # no ACK
        assert P in recorder.state.imports[self.PRODUCER]

    @pytest.mark.parametrize("stamp", [5.0, 1e6],
                             ids=["stale", "far-future"])
    def test_replayed_announce_rejected(self, world, stamp):
        recorder, producer, sent = world
        entries = len(recorder.log)
        other = Route(prefix=P, as_path=(self.PRODUCER, 8, 9),
                      neighbor=self.PRODUCER)
        recorder.receive(SpiderAnnounce.make(
            producer, self.ELECTOR, stamp, other, None))
        assert recorder.alarms == [
            f"stale timestamp from AS{self.PRODUCER}"]
        assert len(recorder.log) == entries and sent == []
        assert recorder.state.imports[self.PRODUCER][P] != other

    def test_fresh_withdraw_accepted(self, world):
        recorder, producer, sent = world
        recorder.receive(SpiderWithdraw.make(
            producer, self.ELECTOR, self.NOW, P))
        assert recorder.alarms == []
        assert P not in recorder.state.imports.get(self.PRODUCER, {})
        assert len(sent) == 1                    # the ACK
