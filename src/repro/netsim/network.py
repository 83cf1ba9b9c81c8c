"""The simulated internetwork: speakers wired over the event loop.

A :class:`Network` instantiates one BGP speaker per AS of a topology,
delivers UPDATEs over links with a configurable propagation delay, and
counts every byte sent by AS and category in the :mod:`repro.obs`
registry — the simulator's stand-in for the paper's 11-machine Quagga
testbed with tcpdump capture.

External route feeds (the RouteViews trace injected at AS 2, Figure 5)
are modeled by :meth:`Network.attach_feed`: a phantom neighbor that only
ever sends updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple, \
    TYPE_CHECKING

from ..bgp.messages import Announce, Update, Withdraw
from ..bgp.policy import Relation, gao_rexford_policy
from ..bgp.prefix import Prefix
from ..bgp.route import Route
from ..bgp.speaker import Speaker
from ..obs.metrics import Counter
from ..obs.registry import get_registry
from .events import Simulator
from .topology import Topology

if TYPE_CHECKING:
    from ..bgp.policy import NeighborConfig

#: Traffic category for plain BGP updates (§7.6).
BGP_TRAFFIC = "bgp"


@dataclass(frozen=True)
class TraceEvent:
    """One external-feed event: an announcement (with AS path) or a
    withdrawal (``path`` is None)."""

    time: float
    prefix: Prefix
    path: Optional[Tuple[int, ...]] = None

    @property
    def is_withdrawal(self) -> bool:
        return self.path is None


class Network:
    """All ASes of one topology plus the event loop connecting them."""

    def __init__(self, topology: Topology,
                 sim: Optional[Simulator] = None,
                 link_delay: float = 0.01):
        self.topology = topology
        self.sim = sim if sim is not None else Simulator()
        self.link_delay = link_delay
        self.speakers: Dict[int, Speaker] = {}
        self._obs = get_registry()
        self._traffic: Dict[Tuple[int, str], Counter] = {}
        self._feeds: Dict[int, int] = {}  # feed ASN -> attachment AS
        for asn in topology.ases:
            relations = topology.relations_of(asn)
            imports, exports = gao_rexford_policy(asn, relations)
            speaker = Speaker(asn, imports, exports)
            for neighbor in relations:
                speaker.add_neighbor(neighbor)
            self.speakers[asn] = speaker

    def speaker(self, asn: int) -> Speaker:
        return self.speakers[asn]

    # ------------------------------------------------------------------
    # Message transport

    def record_traffic(self, sender: int, category: str,
                       nbytes: int) -> None:
        """Count ``nbytes`` sent by AS ``sender`` now under
        ``traffic_bytes_total{node, category}`` (§7.6)."""
        counter = self._traffic.get((sender, category))
        if counter is None:
            counter = self._traffic[sender, category] = self._obs.counter(
                "traffic_bytes_total", node=f"as{sender}",
                category=category)
        counter.inc(nbytes)

    def schedule_delivery(self, sender: int, category: str, nbytes: int,
                          deliver: Callable[[], None]) -> None:
        """Count ``nbytes`` against ``sender`` and schedule ``deliver``
        after one link delay."""
        self.record_traffic(sender, category, nbytes)
        self.sim.after(self.link_delay, deliver)

    def send(self, update: Update) -> None:
        """Count and schedule delivery of one UPDATE."""
        self.schedule_delivery(update.sender, BGP_TRAFFIC,
                               update.wire_size(),
                               lambda: self._deliver(update))

    def _deliver(self, update: Update) -> None:
        receiver = self.speakers.get(update.receiver)
        if receiver is None:
            return  # delivered to a phantom feed: dropped
        for outgoing in receiver.receive(update):
            self.send(outgoing)

    # ------------------------------------------------------------------
    # Origination and external feeds

    def originate(self, asn: int, prefix: Prefix) -> None:
        for update in self.speakers[asn].originate(prefix):
            self.send(update)

    def withdraw_origin(self, asn: int, prefix: Prefix) -> None:
        for update in self.speakers[asn].withdraw_origin(prefix):
            self.send(update)

    def attach_feed(self, at_asn: int, feed_asn: int,
                    relation: Relation = Relation.PROVIDER) -> None:
        """Attach a phantom external neighbor that injects a trace.

        ``relation`` is what the feed is to ``at_asn`` (default: its
        provider, matching a RouteViews-style full feed).
        """
        speaker = self.speakers[at_asn]
        if feed_asn in self.speakers:
            raise ValueError("feed ASN collides with a simulated AS")
        speaker.add_neighbor(feed_asn)
        speaker.import_policy.neighbors[feed_asn] = \
            _feed_config(feed_asn, relation)
        speaker.export_policy.neighbors[feed_asn] = \
            _feed_config(feed_asn, relation)
        self._feeds[feed_asn] = at_asn

    def schedule_trace(self, feed_asn: int,
                       events: Iterable[TraceEvent]) -> None:
        """Schedule external-feed events onto the event loop."""
        at_asn = self._feeds.get(feed_asn)
        if at_asn is None:
            raise ValueError(f"feed {feed_asn} is not attached")
        for event in events:
            update = self._feed_update(feed_asn, at_asn, event)
            self.sim.at(event.time, lambda u=update: self._inject(u))

    def _feed_update(self, feed_asn: int, at_asn: int,
                     event: TraceEvent) -> Update:
        if event.is_withdrawal:
            return Withdraw(sender=feed_asn, receiver=at_asn,
                            prefix=event.prefix)
        path = event.path
        if not path or path[0] != feed_asn:
            path = (feed_asn,) + tuple(path or ())
        route = Route(prefix=event.prefix, as_path=path,
                      neighbor=feed_asn)
        return Announce(sender=feed_asn, receiver=at_asn, route=route)

    def _inject(self, update: Update) -> None:
        # Feed updates are counted against the feed's attachment AS's
        # *incoming* side only via the propagated traffic they cause.
        self._deliver(update)

    # ------------------------------------------------------------------
    # Scheduled interventions (fault campaigns)

    def schedule_fault(self, time: float, label: str,
                       action: Callable[[], None]) -> None:
        """Run ``action`` at simulated ``time`` — the injection hook for
        adversarial campaigns (flip a policy, originate a prefix,
        activate a misbehaving recorder) at a scheduled instant while
        traffic is in flight.  ``label`` names the intervention for
        reproducibility records; the network itself only schedules it.
        """
        if time < self.sim.now:
            raise ValueError(
                f"cannot schedule fault {label!r} in the past")
        self.sim.at(time, action)

    # ------------------------------------------------------------------
    # Execution

    def settle(self, max_events: int = 10_000_000) -> None:
        """Run until no messages remain in flight."""
        self.sim.run(max_events=max_events)

    def run_until(self, t: float) -> None:
        self.sim.run_until(t)

    def routing_consistent(self) -> bool:
        """Every advertised route is installed at the receiving AS.

        A converged network must satisfy this; used as a sanity check in
        integration tests.
        """
        for asn, speaker in self.speakers.items():
            for neighbor in speaker.neighbors:
                peer = self.speakers.get(neighbor)
                if peer is None:
                    continue
                for prefix in speaker.rib_out.prefixes_to(neighbor):
                    sent = speaker.advertised_to(neighbor, prefix)
                    got = peer.received_from(asn, prefix)
                    # Compare wire encodings: the neighbor field is
                    # receiver-local and intentionally differs.
                    if got is None or sent.to_bytes() != got.to_bytes():
                        return False
        return True


def _feed_config(feed_asn: int, relation: Relation
                 ) -> "NeighborConfig":
    from ..bgp.policy import NeighborConfig
    return NeighborConfig(asn=feed_asn, relation=relation)
