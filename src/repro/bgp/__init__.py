"""BGP-4 substrate: prefixes, routes, RIBs, decision process, policy.

This package is the routing system that SPIDeR verifies.  It models BGP at
AS granularity — the level at which promises are made and checked.
"""

from .communities import ActionKind, Community, CommunityAction, \
    NO_ADVERTISE, NO_EXPORT, community, format_community, local_pref_tiers, \
    parse_community
from .decision import best_route, compare, preference_key, rank
from .messages import Announce, Update, Withdraw, route_of, update_prefix
from .policy import ExportPolicy, ImportPolicy, NeighborConfig, Relation, \
    RELATION_LOCAL_PREF, gao_rexford_policy
from .prefix import DEFAULT_ROUTE_PREFIX, MAX_PREFIX_LEN, Prefix, PrefixError
from .rib import AdjRibIn, AdjRibOut, LocRib, rib_diff
from .route import DEFAULT_LOCAL_PREF, NULL_ROUTE, NullRoute, Origin, Route, \
    originate
from .speaker import Speaker

__all__ = [
    "ActionKind", "Community", "CommunityAction", "NO_ADVERTISE",
    "NO_EXPORT", "community", "format_community", "local_pref_tiers",
    "parse_community",
    "best_route", "compare", "preference_key", "rank",
    "Announce", "Update", "Withdraw", "route_of", "update_prefix",
    "ExportPolicy", "ImportPolicy", "NeighborConfig", "Relation",
    "RELATION_LOCAL_PREF", "gao_rexford_policy",
    "DEFAULT_ROUTE_PREFIX", "MAX_PREFIX_LEN", "Prefix", "PrefixError",
    "AdjRibIn", "AdjRibOut", "LocRib", "rib_diff",
    "DEFAULT_LOCAL_PREF", "NULL_ROUTE", "NullRoute", "Origin", "Route",
    "originate",
    "Speaker",
]
