"""Routing-state checkpoints and log replay (Section 6.5).

The recorder keeps a full snapshot of its routing state at the beginning
of the log (and optionally at later commitment times).  When verification
is triggered for a commitment, the proof generator loads the most recent
checkpoint before that commitment's log entry and replays every logged
message up to the entry, reproducing exactly the state the MTT was built
from.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from operator import attrgetter
from typing import Collection, Optional, Tuple

from ..bgp.prefix import Prefix
from ..bgp.route import Route
from .log import EntryKind, LogEntry, SpiderLog
from .state import RoutingState
from .wire import SpiderAnnounce, SpiderWithdraw


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
        route = message.route
        if route.neighbor != message.sender:
            route = dataclasses.replace(route, neighbor=message.sender)
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


_entry_index = attrgetter("index")


def replay(log: SpiderLog, asn: int, *, before_index: int,
           since: Optional[Tuple[int, RoutingState]] = None
           ) -> RoutingState:
    """Reconstruct the routing state from every entry below
    ``before_index``: a commitment's COMMITMENT entry (§6.5; entries
    logged after it in its millisecond share its stamp, so only a
    position cuts them out), or :meth:`SpiderLog.index_after` for a
    view at a time.

    Folds the latest checkpoint inside the cut and every later entry
    inside it (nothing before a checkpoint survives it, so nothing
    before it is applied).  Incoming messages take effect when
    acknowledged, outgoing when sent (Section 6.3); the recorder logs
    them at exactly those moments, so replay can apply entries in log
    order.

    ``since=(index, state)`` resumes: ``state`` must be this replay's
    result for ``before_index=index`` on the same log.  If no
    checkpoint lies in ``[index, before_index)``, the full replay's fold
    is that state's fold continued, so a copy of ``state`` takes the
    entries in between; otherwise the fold starts over at the latest
    one, as the full replay does.  Either way the result is the full
    replay's, down to dict order.  An ``index`` at or before the first
    entry the log still holds (a trim may have dropped what ``state``
    was folded from), or past the cut, means a full replay.
    """
    end = bisect_left(log, before_index, key=_entry_index)
    # ``since`` holds the fold below ``floor``: the latest checkpoint
    # inside the cut is looked for down to there.
    base: Optional[RoutingState] = None
    floor = 0
    if since and len(log) and log[0].index < since[0] <= before_index:
        floor = bisect_left(log, since[0], key=_entry_index)
        base = since[1]
    entries = log[floor:end]
    for position in range(len(entries) - 1, -1, -1):
        if entries[position].kind is EntryKind.CHECKPOINT:
            # The fold starts over at that checkpoint.
            entries = entries[position:]
            base = None
            break
    state = RoutingState() if base is None else base.copy()
    for entry in entries:
        apply_entry(state, asn, entry)
    return state


def take_checkpoint(log: SpiderLog, timestamp: float,
                    state: RoutingState) -> LogEntry:
    """Store a full snapshot in the log."""
    return log.append(timestamp, EntryKind.CHECKPOINT, state.copy())
