"""Extended verification (Section 6.6): catching suppressed withdrawals.

Signed announcements let a consumer check that a received route *once*
existed, but not that it still does: if a producer withdraws a route and
the elector silently keeps announcing it, the consumer cannot tell.
Extended verification fixes this:

1. every producer sends the elector a RE-ANNOUNCE for **each** route it
   was exporting at the commitment time (message type distinct from
   ANNOUNCE so it can never substitute for an original);
2. the elector forwards to each consumer the RE-ANNOUNCEs matching the
   routes that consumer had originally received;
3. the consumer checks that every route it holds from the elector is
   backed by a fresh producer RE-ANNOUNCE.

The elector must request RE-ANNOUNCEs for *all* routes, not only chosen
ones — asking selectively would reveal which routes were chosen and
break privacy.  A producer that refuses can be convicted with evidence
of import (Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

from ..bgp.prefix import Prefix
from ..core.verdict import FaultKind, Verdict
from ..crypto.keys import KeyRegistry
from ..netsim.network import Network
from .checkpoint import elector_view
from .node import SpiderNode
from .wire import SpiderAnnounce


class DeploymentView(Protocol):
    """What §6.6 reads of a deployment: nodes, keys and topology."""
    registry: KeyRegistry
    network: Network
    nodes: Dict[int, SpiderNode]


@dataclass
class ExtendedVerificationResult:
    """Outcome of one extended verification of one elector."""

    elector: int
    commit_time: float
    #: producer → number of RE-ANNOUNCEs supplied.
    reannounces: Dict[int, int] = field(default_factory=dict)
    #: consumer → verdicts raised while checking its routes.
    verdicts: List[Verdict] = field(default_factory=list)
    #: producers that refused to re-announce (convictable via evidence
    #: of import).
    refusing_producers: List[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.verdicts and not self.refusing_producers


def producer_reannounces(node: SpiderNode, elector: int,
                         commit_time: float,
                         suppress: Tuple[Prefix, ...] = (),
                         ) -> List[SpiderAnnounce]:
    """Step 1: one RE-ANNOUNCE per route this AS exported to the elector
    at the commitment time, timestamped with the commitment time.

    ``suppress`` injects the fault where a producer withholds some
    re-announcements (it no longer stands behind those routes).
    """
    view = node.view_at(commit_time)
    exports = view.exports.get(elector, {})
    messages: List[SpiderAnnounce] = []
    for prefix, route in sorted(exports.items()):
        if prefix in suppress:
            continue
        messages.append(SpiderAnnounce.make(
            node.recorder.signer, receiver=elector,
            timestamp=commit_time, route=route, underlying=None,
            reannounce=True))
    return messages


def run_extended_verification(
        deployment: DeploymentView, elector: int,
        commit_time: Optional[float] = None,
        producer_suppress: Optional[Dict[int, Tuple[Prefix, ...]]] = None,
        stale_exports: Optional[Dict[int, Dict[Prefix, SpiderAnnounce]]]
        = None) -> ExtendedVerificationResult:
    """Run §6.6 end to end for one elector commitment.

    ``producer_suppress`` injects producers that withhold RE-ANNOUNCEs;
    ``stale_exports`` overrides what a consumer believes it currently
    holds from the elector (modeling a suppressed withdrawal: the
    consumer still holds a route whose producer has moved on).
    """
    producer_suppress = producer_suppress or {}
    stale_exports = stale_exports or {}
    elector_node = deployment.nodes[elector]
    records = elector_node.recorder.commitments
    if not records:
        raise ValueError(f"AS {elector} has made no commitments")
    if commit_time is None:
        commit_time = records[-1].commit_time
    registry = deployment.registry

    result = ExtendedVerificationResult(elector=elector,
                                        commit_time=commit_time)

    # --- Step 1: collect RE-ANNOUNCEs from every producer. -------------
    elector_view_state = elector_node.committed_view(commit_time)
    fresh: Dict[int, Dict[Prefix, SpiderAnnounce]] = {}
    for producer in sorted(elector_view_state.imports):
        node = deployment.nodes.get(producer)
        if node is None:
            continue
        messages = producer_reannounces(
            node, elector, commit_time,
            suppress=producer_suppress.get(producer, ()))
        valid: Dict[Prefix, SpiderAnnounce] = {}
        for message in messages:
            if message.valid(registry) and message.reannounce and \
                    message.timestamp == commit_time:
                valid[message.prefix] = message
        fresh[producer] = valid
        result.reannounces[producer] = len(valid)
        # The elector checks coverage: any import without a matching
        # RE-ANNOUNCE marks the producer as refusing (evidence of
        # import then convicts it, §6.6).
        for prefix in elector_view_state.imports[producer]:
            if prefix not in valid and \
                    producer not in result.refusing_producers:
                result.refusing_producers.append(producer)

    # --- Steps 2-3: forward matching RE-ANNOUNCEs; consumers check. ----
    for consumer in deployment.network.topology.neighbors(elector):
        consumer_node = deployment.nodes.get(consumer)
        if consumer_node is None:
            continue
        if consumer in stale_exports:
            held = stale_exports[consumer]
        else:
            consumer_state = consumer_node.view_at(commit_time)
            held = consumer_state.imports.get(elector, {})
        for prefix, route in sorted(held.items()):
            underlying = elector_view(
                route if not isinstance(route, SpiderAnnounce)
                else route.route, elector)
            if underlying.as_path and underlying.as_path[0] == elector:
                continue  # elector-originated: no producer to back it
            producer = underlying.as_path[0] if underlying.as_path \
                else None
            if producer is not None and \
                    producer not in deployment.nodes:
                # §6.7 incremental deployment: a non-participating
                # producer (e.g. a route-feed neighbor) sends no
                # RE-ANNOUNCEs, so its routes cannot be checked — the
                # guarantee covers the participating subset only.
                continue
            backing = fresh.get(producer, {}).get(prefix)
            if backing is None or \
                    backing.route.to_bytes() != underlying.to_bytes():
                result.verdicts.append(Verdict(
                    detector=consumer, accused=elector,
                    kind=FaultKind.BROKEN_PROMISE,
                    description=(
                        f"{prefix}: the route we hold from AS{elector} "
                        "is not backed by a fresh producer RE-ANNOUNCE "
                        "(withdrawal suppressed?)"
                    )))
    return result
