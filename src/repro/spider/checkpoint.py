"""Routing-state checkpoints and log replay (Section 6.5).

The recorder keeps a full snapshot of its routing state at the beginning
of the log (and optionally at later commitment times).  When verification
is triggered for a commitment at time t, the proof generator loads the
most recent checkpoint before t and replays all logged messages up to t,
reproducing exactly the state the MTT was built from.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Set

from ..bgp.prefix import Prefix
from ..bgp.route import Route
from .log import EntryKind, LogEntry, SpiderLog
from .wire import SpiderAnnounce, SpiderWithdraw


@dataclass
class RoutingState:
    """What a commitment needs to know about one AS's routing at time t.

    * ``imports[neighbor][prefix]`` — the route that neighbor was
      advertising to us (the VPref inputs);
    * ``exports[neighbor][prefix]`` — the route we were advertising to
      that neighbor (the VPref offers);
    * ``origins`` — prefixes we originate ourselves.
    """

    imports: Dict[int, Dict[Prefix, Route]] = field(default_factory=dict)
    exports: Dict[int, Dict[Prefix, Route]] = field(default_factory=dict)
    origins: Set[Prefix] = field(default_factory=set)

    def copy(self) -> "RoutingState":
        return RoutingState(
            imports={n: dict(t) for n, t in self.imports.items()},
            exports={n: dict(t) for n, t in self.exports.items()},
            origins=set(self.origins),
        )

    def known_prefixes(self) -> Set[Prefix]:
        prefixes: Set[Prefix] = set(self.origins)
        for table in self.imports.values():
            prefixes.update(table)
        for table in self.exports.values():
            prefixes.update(table)
        return prefixes

    def knows(self, prefix: Prefix) -> bool:
        """``prefix in known_prefixes()``, without building the set."""
        return prefix in self.origins or \
            any(prefix in table for table in self.imports.values()) or \
            any(prefix in table for table in self.exports.values())

    def import_route(self, neighbor: int,
                     prefix: Prefix) -> Optional[Route]:
        return self.imports.get(neighbor, {}).get(prefix)

    def serialized_size(self) -> int:
        """Snapshot size in bytes (the §7.7 snapshot measurement)."""
        total = 0
        for table in list(self.imports.values()) + \
                list(self.exports.values()):
            for route in table.values():
                total += 4 + len(route.to_bytes())  # neighbor + route
        total += 5 * len(self.origins)
        return total


def elector_view(route: Route, elector: int) -> Route:
    """A wire route as it exists inside the elector's route space.

    On export the elector prepends its own ASN, so the route the consumer
    sees is one hop longer than the route the elector chose; promises are
    about the elector's routes (Definition 1 is over ``R(A, p)``), so
    classification must strip that prepend.  A single-hop path equal to
    the elector means a locally originated route, which *is* the
    elector's route.
    """
    if route.as_path and route.as_path[0] == elector and \
            len(route.as_path) > 1:
        return dataclasses.replace(route, as_path=route.as_path[1:])
    return route


def apply_entry(state: RoutingState, asn: int,
                entry: LogEntry) -> Collection[Prefix]:
    """Fold one logged entry into the replayed state.

    Returns the prefixes whose routes the entry touched — the one
    definition of what an entry changes, for :func:`replay` and for the
    recorder's mirror and retained commitment tree alike.
    """
    message = entry.payload
    if entry.kind is EntryKind.RECV_ANNOUNCE:
        assert isinstance(message, SpiderAnnounce)
        # Stamp the sender as the route's (receiver-local) neighbor, like
        # the BGP speaker does for its Adj-RIB-In.
        route = dataclasses.replace(message.route,
                                    neighbor=message.sender)
        state.imports.setdefault(message.sender, {})[message.prefix] = \
            route
        return (message.prefix,)
    if entry.kind is EntryKind.RECV_WITHDRAW:
        assert isinstance(message, SpiderWithdraw)
        state.imports.get(message.sender, {}).pop(message.prefix, None)
        return (message.prefix,)
    if entry.kind is EntryKind.SENT_ANNOUNCE:
        assert isinstance(message, SpiderAnnounce)
        state.exports.setdefault(message.receiver, {})[message.prefix] = \
            message.route
        return (message.prefix,)
    if entry.kind is EntryKind.SENT_WITHDRAW:
        assert isinstance(message, SpiderWithdraw)
        state.exports.get(message.receiver, {}).pop(message.prefix, None)
        return (message.prefix,)
    if entry.kind is EntryKind.CHECKPOINT:
        assert isinstance(message, RoutingState)
        if message == state:
            # A snapshot of this very state — every checkpoint folded
            # where it was taken, and after a replay from genesis —
            # changes nothing.
            return ()
        # Otherwise it replaces the state: what precedes a checkpoint
        # in a trimmed or compacted log does not add up to it.
        touched = state.known_prefixes()
        snapshot = message.copy()
        state.imports, state.exports, state.origins = \
            snapshot.imports, snapshot.exports, snapshot.origins
        return touched | state.known_prefixes()
    return ()  # ACKs and commitments do not change routing state


def replay(log: SpiderLog, asn: int, until: Optional[float] = None, *,
           before_index: Optional[int] = None) -> RoutingState:
    """Reconstruct the routing state at a point of the log.

    The point is a time — every entry with timestamp ≤ ``until`` — or,
    for the proof generator, a log position: every entry below
    ``before_index``, the index of the commitment entry.  The recorder
    commits to its state as of that position, and entries logged in the
    same millisecond *after* it carry the same timestamp, so a
    commitment can only be cut out by position.

    Folds the latest checkpoint inside the cut and every later entry
    inside it (nothing before a checkpoint survives it, so nothing
    before it is applied).  Incoming messages take effect when
    acknowledged, outgoing when sent (Section 6.3); the recorder logs
    them at exactly those moments, so replay can apply entries in log
    order.
    """
    if (until is None) == (before_index is None):
        raise ValueError("replay needs a time or a log index, not both")
    cut: List[LogEntry] = []
    for entry in log:
        if before_index is not None:
            if entry.index >= before_index:
                break
        elif until is not None and entry.timestamp > until:
            break
        if entry.kind is EntryKind.CHECKPOINT:
            cut = []
        cut.append(entry)
    state = RoutingState()
    for entry in cut:
        apply_entry(state, asn, entry)
    return state


def take_checkpoint(log: SpiderLog, timestamp: float,
                    state: RoutingState) -> LogEntry:
    """Store a full snapshot in the log."""
    return log.append(timestamp, EntryKind.CHECKPOINT, state.copy())
