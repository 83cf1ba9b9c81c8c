"""A BGP speaker at AS granularity.

One :class:`Speaker` models the externally visible BGP behaviour of one AS:
it maintains the three RIBs, applies import/export policy, runs the decision
process, and emits the UPDATEs needed to keep neighbors in sync.  (The
paper's testbed ran 36 Quagga routers in 10 ASes, but SPIDeR itself operates
at the AS level — Section 8 discusses AS atomicity — so the simulator uses
one speaker per AS.)

Speakers are transport-agnostic: :meth:`receive` and the ``originate`` /
``withdraw_origin`` calls *return* the updates to transmit, and the network
simulator delivers them.  Observers can subscribe to the raw message flow,
which is exactly how the SPIDeR recorder mirrors routing state by "observing
the BGP message flow" (Section 1).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Set

from .messages import Announce, Update, Withdraw
from .decision import best_route
from .policy import ExportPolicy, ImportPolicy
from .prefix import Prefix
from .rib import AdjRibIn, AdjRibOut, LocRib
from .route import Route, originate as make_origin_route

Observer = Callable[[Update], None]


class Speaker:
    """The BGP view of a single AS."""

    def __init__(self, asn: int, import_policy: ImportPolicy,
                 export_policy: ExportPolicy):
        if import_policy.local_asn != asn or \
                export_policy.local_asn != asn:
            raise ValueError("policy local_asn does not match speaker")
        self.asn = asn
        self.import_policy = import_policy
        self.export_policy = export_policy
        self.neighbors: Set[int] = set()
        #: Routes exactly as advertised by each neighbor (pre-import-policy);
        #: these are the elector's VPref inputs r_i.
        self.rib_in_raw = AdjRibIn()
        #: Routes after import policy (decision-process candidates).
        self.rib_in = AdjRibIn()
        self.loc_rib = LocRib()
        self.rib_out = AdjRibOut()
        #: Prefixes this AS originates.
        self.origins: Set[Prefix] = set()
        self._receive_observers: List[Observer] = []
        self._send_observers: List[Observer] = []

    # ------------------------------------------------------------------
    # Wiring

    def add_neighbor(self, asn: int) -> None:
        if asn == self.asn:
            raise ValueError("an AS cannot peer with itself")
        self.neighbors.add(asn)

    def remove_neighbor(self, asn: int) -> List[Update]:
        """Tear down a session; returns updates caused by lost routes."""
        self.neighbors.discard(asn)
        affected = self.rib_in_raw.drop_neighbor(asn)
        self.rib_in.drop_neighbor(asn)
        self.rib_out.table.pop(asn, None)
        out: List[Update] = []
        for prefix in affected:
            out.extend(self._reselect(prefix))
        return out

    def on_receive(self, observer: Observer) -> None:
        """Subscribe to incoming updates (recorder mirroring hook)."""
        self._receive_observers.append(observer)

    def on_send(self, observer: Observer) -> None:
        self._send_observers.append(observer)

    # ------------------------------------------------------------------
    # Local origination

    def originate(self, prefix: Prefix) -> List[Update]:
        """Start originating ``prefix``; returns updates to transmit."""
        self.origins.add(prefix)
        return self._reselect(prefix)

    def withdraw_origin(self, prefix: Prefix) -> List[Update]:
        self.origins.discard(prefix)
        return self._reselect(prefix)

    # ------------------------------------------------------------------
    # Message processing

    def receive(self, update: Update) -> List[Update]:
        """Process one incoming UPDATE; returns updates to transmit."""
        if update.receiver != self.asn:
            raise ValueError(
                f"AS {self.asn} received update addressed to "
                f"{update.receiver}"
            )
        if update.sender not in self.neighbors:
            raise ValueError(
                f"AS {self.asn} received update from non-neighbor "
                f"{update.sender}"
            )
        for observer in self._receive_observers:
            observer(update)

        if isinstance(update, Announce):
            # Stamp the sending AS as the route's neighbor: the neighbor
            # field is receiver-local (it drives MED grouping, relation
            # lookup, and VPref classification).
            raw = dataclasses.replace(update.route,
                                      neighbor=update.sender)
            self.rib_in_raw.put(update.sender, raw)
            imported = self.import_policy.apply(raw, update.sender)
            if imported is None:
                self.rib_in.remove(update.sender, raw.prefix)
            else:
                self.rib_in.put(update.sender, imported)
            return self._reselect(raw.prefix)

        self.rib_in_raw.remove(update.sender, update.prefix)
        self.rib_in.remove(update.sender, update.prefix)
        return self._reselect(update.prefix)

    # ------------------------------------------------------------------
    # Decision + export

    def _candidates(self, prefix: Prefix) -> List[Route]:
        candidates = self.rib_in.candidates(prefix)
        if prefix in self.origins:
            candidates.append(make_origin_route(prefix, self.asn))
        return candidates

    def _reselect(self, prefix: Prefix) -> List[Update]:
        """Re-run the decision for ``prefix`` and sync every neighbor."""
        new_best = best_route(self._candidates(prefix))
        if new_best is None:
            self.loc_rib.remove(prefix)
        else:
            self.loc_rib.put(new_best)
        out: List[Update] = []
        for neighbor in sorted(self.neighbors):
            out.extend(self._sync_neighbor(neighbor, prefix, new_best))
        return out

    def _sync_neighbor(self, neighbor: int, prefix: Prefix,
                       best: Optional[Route]) -> List[Update]:
        exported = None
        if best is not None:
            exported = self.export_policy.apply(best, neighbor)
        previous = self.rib_out.advertised(neighbor, prefix)
        if exported == previous:
            return []
        if exported is None:
            self.rib_out.remove(neighbor, prefix)
            update: Update = Withdraw(sender=self.asn, receiver=neighbor,
                                      prefix=prefix)
        else:
            self.rib_out.put(neighbor, exported)
            update = Announce(sender=self.asn, receiver=neighbor,
                              route=exported)
        for observer in self._send_observers:
            observer(update)
        return [update]

    # ------------------------------------------------------------------
    # Introspection

    def best(self, prefix: Prefix) -> Optional[Route]:
        return self.loc_rib.get(prefix)

    def advertised_to(self, neighbor: int, prefix: Prefix) -> Optional[Route]:
        return self.rib_out.advertised(neighbor, prefix)

    def received_from(self, neighbor: int, prefix: Prefix) -> Optional[Route]:
        """The raw route a neighbor currently advertises to us."""
        return self.rib_in_raw.route_from(neighbor, prefix)

    def __repr__(self) -> str:
        return (f"Speaker(AS{self.asn}, {len(self.neighbors)} neighbors, "
                f"{len(self.loc_rib)} routes)")
