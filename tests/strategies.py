"""Shared hypothesis strategies for the whole test suite.

One home for every generator that more than one test module draws
from: wire messages (codec round-trips and corruption fuzz), durable
log payloads (store recovery fuzz), and campaign coordinates (the
adversarial campaign property tests).  Keeping them here means a new
wire field is added to exactly one strategy and every fuzz suite picks
it up.

Strategies are deliberately structural: signatures are arbitrary bytes
(the codec moves envelopes, it does not verify them) and digests are
fixed-width random bytes.
"""

from hypothesis import strategies as st

from repro.bgp.prefix import Prefix
from repro.bgp.route import Origin, Route
from repro.crypto.hashing import DIGEST_SIZE
from repro.crypto.signatures import Signed
from repro.faults.adversaries import ATTACK_CLASSES
from repro.mtt.proofs import MttBitProof, PathStep
from repro.spider.checkpoint import RoutingState
from repro.spider.log import EntryKind
from repro.spider.wire import SpiderAck, SpiderAnnounce, SpiderBitProof, \
    SpiderCommitment, SpiderWithdraw

# ----------------------------------------------------------------------
# Scalars

asns = st.integers(min_value=1, max_value=2**32 - 1)
#: Millisecond-grid timestamps, the codec's declared resolution.
timestamps = st.integers(min_value=0, max_value=2**40).map(
    lambda ms: ms / 1000.0)
digests = st.binary(min_size=DIGEST_SIZE, max_size=DIGEST_SIZE)


# ----------------------------------------------------------------------
# BGP objects


@st.composite
def prefixes(draw):
    length = draw(st.integers(min_value=0, max_value=32))
    address = draw(st.integers(min_value=0, max_value=2**32 - 1))
    mask = ((1 << length) - 1) << (32 - length) if length else 0
    return Prefix(address=address & mask, length=length)


@st.composite
def routes(draw):
    path = draw(st.lists(asns, min_size=0, max_size=8, unique=True))
    communities = draw(st.frozensets(
        st.tuples(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1)),
        max_size=4))
    return Route(
        prefix=draw(prefixes()),
        as_path=tuple(path),
        neighbor=draw(st.integers(0, 2**32 - 1)),
        local_pref=draw(st.integers(-2**31, 2**31 - 1)),
        med=draw(st.integers(0, 2**32 - 1)),
        origin=draw(st.sampled_from(list(Origin))),
        communities=communities,
        router_id=draw(st.integers(0, 2**32 - 1)),
    )


# ----------------------------------------------------------------------
# Wire messages


@st.composite
def signed_envelopes(draw):
    n_batch = draw(st.integers(min_value=0, max_value=3))
    batch = tuple(draw(digests) for _ in range(n_batch))
    index = draw(st.integers(0, n_batch - 1)) if n_batch else 0
    return Signed(
        signer=draw(asns),
        payload=draw(st.binary(max_size=64)),
        signature=draw(st.binary(min_size=1, max_size=128)),
        batch_digests=batch,
        batch_index=index,
    )


@st.composite
def announces(draw):
    return SpiderAnnounce(
        sender=draw(asns), receiver=draw(asns),
        timestamp=draw(timestamps), route=draw(routes()),
        underlying=draw(st.none() | signed_envelopes()),
        route_sig=draw(signed_envelopes()),
        envelope=draw(signed_envelopes()),
        reannounce=draw(st.booleans()),
    )


@st.composite
def withdraws(draw):
    return SpiderWithdraw(
        sender=draw(asns), receiver=draw(asns),
        timestamp=draw(timestamps), prefix=draw(prefixes()),
        envelope=draw(signed_envelopes()),
    )


@st.composite
def acks(draw):
    return SpiderAck(
        acker=draw(asns), sender=draw(asns),
        timestamp=draw(timestamps),
        message_hash=draw(st.binary(max_size=40)),
        envelope=draw(signed_envelopes()),
    )


@st.composite
def commitments(draw):
    return SpiderCommitment(
        elector=draw(asns), commit_time=draw(timestamps),
        root=draw(digests), envelope=draw(signed_envelopes()),
    )


@st.composite
def bit_proofs(draw):
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        n_children = draw(st.integers(min_value=1, max_value=4))
        steps.append(PathStep(
            child_labels=tuple(draw(digests)
                               for _ in range(n_children)),
            child_index=draw(st.integers(0, n_children - 1)),
        ))
    proof = MttBitProof(
        prefix=draw(prefixes()),
        class_index=draw(st.integers(0, 2**16)),
        bit=draw(st.integers(0, 1)),
        blinding=draw(digests),
        steps=tuple(steps),
    )
    return SpiderBitProof(
        elector=draw(asns), recipient=draw(asns),
        commit_time=draw(timestamps), proof=proof,
        envelope=draw(signed_envelopes()),
    )


def messages():
    """Any frame-codec message."""
    return st.one_of(announces(), withdraws(), acks(), commitments(),
                     bit_proofs())


# ----------------------------------------------------------------------
# Durable log payloads


@st.composite
def routing_states(draw):
    state = RoutingState()
    for table in (state.imports, state.exports):
        for _ in range(draw(st.integers(0, 2))):
            neighbor = draw(st.integers(1, 65535))
            route = draw(routes())
            table.setdefault(neighbor, {})[route.prefix] = route
    state.origins = set(draw(st.lists(prefixes(), max_size=2)))
    return state


def commitment_payloads():
    return st.fixed_dictionaries({
        "seed": st.binary(min_size=0, max_size=32),
        "root": st.binary(min_size=0, max_size=32),
    })


#: A payload strategy for every kind of entry a ``SpiderLog`` holds.
ENTRY_PAYLOADS = {
    EntryKind.SENT_ANNOUNCE: announces(),
    EntryKind.RECV_ANNOUNCE: announces(),
    EntryKind.SENT_WITHDRAW: withdraws(),
    EntryKind.RECV_WITHDRAW: withdraws(),
    EntryKind.SENT_ACK: acks(),
    EntryKind.RECV_ACK: acks(),
    EntryKind.COMMITMENT: commitment_payloads(),
    EntryKind.CHECKPOINT: routing_states(),
}


@st.composite
def log_payloads(draw):
    """A ``(kind, payload)`` pair a ``SpiderLog`` can append."""
    kind = draw(st.sampled_from(sorted(ENTRY_PAYLOADS,
                                       key=lambda k: k.value)))
    return kind, draw(ENTRY_PAYLOADS[kind])


# ----------------------------------------------------------------------
# Campaign coordinates
#
# A campaign is fully determined by ``(seed, index)``; the engine seeds
# its generator from ``f"{seed}:{index}"`` and picks the attack class
# round-robin over ATTACK_CLASSES.  These strategies let property tests
# roam the coordinate space without hand-picking sweeps.

campaign_seeds = st.integers(min_value=0, max_value=2**32 - 1)
campaign_indices = st.integers(min_value=0,
                               max_value=4 * len(ATTACK_CLASSES) - 1)


@st.composite
def campaign_coordinates(draw):
    """A ``(seed, index)`` pair addressing one campaign."""
    return draw(campaign_seeds), draw(campaign_indices)


# ----------------------------------------------------------------------
# Recorder histories
#
# What one recorder lives through between commitments, as data: the
# test decides how a step is signed and delivered.  Prefixes come from
# a small per-history pool that nests (a prefix and one of its covering
# prefixes), so re-announcements, withdrawals of known prefixes and
# parent/child pairs are the common case rather than a coincidence.


@st.composite
def prefix_pools(draw):
    pool = draw(st.lists(prefixes(), min_size=1, max_size=4,
                         unique=True))
    for prefix in list(pool):
        if prefix.length and draw(st.booleans()):
            length = draw(st.integers(0, prefix.length - 1))
            mask = ((1 << length) - 1) << (32 - length) if length else 0
            pool.append(Prefix(address=prefix.address & mask,
                               length=length))
    return sorted(set(pool))


@st.composite
def recorder_histories(draw, neighbors=(2, 3), max_steps=16,
                       restarts=False):
    """A list of steps: ``("announce", neighbor, prefix, path_tail)``
    and ``("withdraw", neighbor, prefix)`` arrive from ``neighbor``;
    ``("export", neighbor, prefix, path_tail)`` and ``("unexport",
    neighbor, prefix)`` are the recorder's own AS talking to it (the
    AS path is whoever speaks, then the tail); ``("ack",)`` is the ACK
    for the oldest message the recorder still awaits one for — late
    when other steps came first, never when the history ends before
    it; ``("commit",)`` is a commitment round, ``("trim",)`` a
    retention trim of the log (a no-op under the default year of
    retention) and, with ``restarts``, ``("restart",)`` a crash and a
    recovery from the log.  Every history ends in a commit."""
    pool = draw(prefix_pools())
    kinds = ["announce", "announce", "withdraw", "export", "unexport",
             "ack", "commit", "trim"] + (["restart"] if restarts else [])
    steps = []
    for _ in range(draw(st.integers(1, max_steps))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("ack", "commit", "trim", "restart"):
            steps.append((kind,))
            continue
        neighbor = draw(st.sampled_from(neighbors))
        prefix = draw(st.sampled_from(pool))
        if kind in ("announce", "export"):
            tail = draw(st.lists(st.integers(4000, 4008), max_size=4,
                                 unique=True))
            steps.append((kind, neighbor, prefix, tuple(tail)))
        else:
            steps.append((kind, neighbor, prefix))
    return steps + [("commit",)]
