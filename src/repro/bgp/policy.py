"""Import and export policy.

Policy is what promises are *about*: an AS configures pattern-match rules
that set local preference on import and decide which neighbors may see
which routes on export (Section 3).  This module provides:

* :class:`Relation` / :class:`NeighborConfig` — business relationships and
  per-neighbor settings;
* :class:`ImportPolicy` — local-pref assignment (by relation and by
  community action), import filtering, loop rejection;
* :class:`ExportPolicy` — Gao-Rexford export rules, well-known NO_EXPORT,
  selective export by specific AS and by neighbor group (the Figure 2
  actions);
* :func:`gao_rexford_policy` — the configuration used throughout the
  evaluation ("each AS was configured with a simple routing policy based on
  Gao-Rexford", Section 7.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from .communities import ActionKind, Community, CommunityAction, NO_ADVERTISE, \
    NO_EXPORT
from .route import Route


class Relation(enum.Enum):
    """Business relationship with a neighbor, from our point of view."""

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"
    SIBLING = "sibling"


#: Conventional local-pref tiers for Gao-Rexford (customer > peer > provider).
RELATION_LOCAL_PREF = {
    Relation.CUSTOMER: 120,
    Relation.SIBLING: 110,
    Relation.PEER: 100,
    Relation.PROVIDER: 80,
}


@dataclass(frozen=True)
class NeighborConfig:
    """Per-neighbor policy knobs."""

    asn: int
    relation: Relation
    #: Group labels for selective-export-by-group actions, e.g. "peers-pl".
    groups: Tuple[str, ...] = ()


@dataclass
class ImportPolicy:
    """Transforms (or filters) a route received from a neighbor.

    Returns None to reject the route (import filtering); otherwise returns
    the route with local preference and communities as configured.
    """

    local_asn: int
    neighbors: Dict[int, NeighborConfig] = field(default_factory=dict)
    community_actions: Dict[Community, CommunityAction] = \
        field(default_factory=dict)
    #: Prefixes longer than this are rejected (bogon-style hygiene).
    max_prefix_length: int = 32

    def add_action(self, action: CommunityAction) -> None:
        self.community_actions[action.tag] = action

    def apply(self, route: Route, neighbor: int) -> Optional[Route]:
        if route.traverses(self.local_asn):
            return None  # loop prevention
        if route.prefix.length > self.max_prefix_length:
            return None
        if not route.as_path or route.as_path[0] != neighbor:
            return None  # a neighbor must present its own path
        config = self.neighbors.get(neighbor)
        local_pref = RELATION_LOCAL_PREF[config.relation] if config \
            else RELATION_LOCAL_PREF[Relation.PEER]
        result = route.with_local_pref(local_pref)
        # Community-triggered local-pref override (Figure 2, row 1).  When
        # several tags match, the lowest resulting preference wins, which
        # is the conservative reading of "de-preference" menus.
        overrides = [
            action.parameter
            for tag, action in self.community_actions.items()
            if tag in route.communities
            and action.kind is ActionKind.SET_LOCAL_PREF
        ]
        if overrides:
            result = result.with_local_pref(min(overrides))
        return result


@dataclass
class ExportPolicy:
    """Decides whether (and how) a chosen route is exported to a neighbor.

    Returns the route as it should appear on the wire (prepended with the
    local AS), or None when export is suppressed.
    """

    local_asn: int
    neighbors: Dict[int, NeighborConfig] = field(default_factory=dict)
    community_actions: Dict[Community, CommunityAction] = \
        field(default_factory=dict)
    #: Gao-Rexford valley-free export discipline on/off.
    gao_rexford: bool = True

    def add_action(self, action: CommunityAction) -> None:
        self.community_actions[action.tag] = action

    def _relation(self, neighbor: int) -> Relation:
        config = self.neighbors.get(neighbor)
        return config.relation if config else Relation.PEER

    def _suppressed_by_community(self, route: Route, neighbor: int) -> bool:
        if NO_EXPORT in route.communities or \
                NO_ADVERTISE in route.communities:
            return True
        config = self.neighbors.get(neighbor)
        groups = set(config.groups) if config else set()
        for tag, action in self.community_actions.items():
            if tag not in route.communities:
                continue
            if action.kind is ActionKind.SELECTIVE_EXPORT_AS and \
                    action.parameter == neighbor:
                return True
            if action.kind is ActionKind.SELECTIVE_EXPORT_GROUP and \
                    action.parameter in groups:
                return True
        return False

    def _violates_valley_free(self, route: Route, neighbor: int) -> bool:
        """Gao-Rexford: routes from peers/providers go only to customers."""
        if not self.gao_rexford:
            return False
        if self._relation(neighbor) is Relation.CUSTOMER:
            return False  # customers receive everything
        if route.neighbor == 0 or (
                route.as_path and route.as_path[0] == self.local_asn):
            return False  # locally originated: export to everyone
        learned_from = self._relation(route.neighbor)
        return learned_from in (Relation.PEER, Relation.PROVIDER)

    def apply(self, route: Route, neighbor: int) -> Optional[Route]:
        if route.traverses(neighbor):
            return None  # would loop at the receiver anyway
        if self._suppressed_by_community(route, neighbor):
            return None
        if self._violates_valley_free(route, neighbor):
            return None
        if route.as_path and route.as_path[0] == self.local_asn:
            exported = route  # locally originated: already carries our ASN
        else:
            exported = route.prepended(self.local_asn)
        # Strip local-use community tags on export; origin-information tags
        # (Figure 2, row 4) are transitive and kept.
        local_tags = [
            tag for tag in exported.communities
            if tag in self.community_actions
            and self.community_actions[tag].kind is not
            ActionKind.ROUTE_ORIGIN_INFO
        ]
        if local_tags:
            exported = exported.without_communities(*local_tags)
        return exported


def gao_rexford_policy(
    local_asn: int,
    relations: Dict[int, Relation],
    community_actions: Iterable[CommunityAction] = (),
    groups: Optional[Dict[int, Tuple[str, ...]]] = None,
) -> Tuple[ImportPolicy, ExportPolicy]:
    """Build the matched import/export policy pair used in the evaluation.

    The returned policy objects hold the AS's private business
    relationships (§4); spiderlint's SPDR006 treats them as tainted
    until a decision is extracted via ``apply`` (the public verdict).
    """
    groups = groups or {}
    neighbors = {
        asn: NeighborConfig(asn=asn, relation=rel,
                            groups=groups.get(asn, ()))
        for asn, rel in relations.items()
    }
    imports = ImportPolicy(local_asn=local_asn, neighbors=neighbors)
    exports = ExportPolicy(local_asn=local_asn, neighbors=neighbors)
    for action in community_actions:
        imports.add_action(action)
        exports.add_action(action)
    return imports, exports
