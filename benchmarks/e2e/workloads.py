"""The four seeded workloads and the update streams behind them.

A workload is a :class:`Spec` (sizes, store policy, audit style) plus a
:class:`Script`: per peer, per window, the exact updates that peer sends.
Scripts are a pure function of ``(spec, seed, scale)``; the harness
pre-signs them in set-up and the program only ever sees the resulting
wire bytes.

Every workload runs every phase (ingest windows, commitment rounds,
audit units, cold opens) so every end-to-end metric exists on every
workload; what differs is which layers do most of the work, which is
what ``why`` records.
"""

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.traces.workload import generate_path, generate_rib_snapshot

HUB_ASN = 1
PEER_ASNS: Tuple[int, int] = (64512, 64513)

#: AS numbers paths are drawn from (the pool ``repro.traces`` uses).
_AS_POOL = list(range(3000, 5000))

#: Floors below which ``--scale`` never shrinks a phase: fewer units
#: than this and a median over units stops being one.
MIN_WINDOWS = 24
MIN_ROUNDS = 12
MIN_AUDITS = 8
MIN_COLD_OPENS = 5


@dataclass(frozen=True)
class Spec:
    """Sizes and policies of one workload at scale 1."""

    name: str
    why: str
    prefixes: int
    #: Timed ingest windows and updates per window (both peers
    #: together; each peer sends half).
    windows: int
    window_updates: int
    #: Signature burst size range: how many updates share one pair of
    #: peer-side batch signatures (one value = fixed size).
    burst: Tuple[int, int]
    #: ``table``: the windows walk each peer's table in order (at
    #: least once round, further if ``window_updates`` asks for more);
    #: ``flood``: uniform re-announcements with fresh paths;
    #: ``trace``: RouteViews shape - a hot set plus withdrawals.
    stream: str
    store_fsync: str
    rounds: int
    #: Updates of churn sent (as one small untimed-rate window) before
    #: each round; 0 = rounds are spread over the ingest windows.
    churn: int
    #: Commitments audited, and prefixes sampled per neighbour per
    #: audit (0 = the full ``proofs_for`` set).
    audits: int
    audit_sample: int
    #: The hub exports its shortest import to the other neighbour.
    exports: bool
    cold_opens: int
    #: Windows, rounds and audits run on the recovered runtime.
    post_windows: int = 0
    withdraw_share: float = 0.0
    hot_share: float = 1.0
    #: Windows of set-up (untimed as ingest) that announce the whole
    #: table first, like the paper's set-up period before its replay.
    warm_windows: int = 0


SPECS: Tuple[Spec, ...] = (
    Spec(name="flood_batch",
         why="re-announce flood in bursts of 8 on a small table, batch "
             "fsync: framing, codec, RSA verify, receive and append "
             "dominate and mtt is idle, so labeling gains must not show",
         prefixes=300, windows=36, window_updates=150, burst=(8, 8),
         stream="flood", store_fsync="batch", rounds=12, churn=0,
         audits=10, audit_sample=16, exports=False, cold_opens=8),
    Spec(name="table_commit",
         why="large table loaded once, then rounds at 0.25% churn: "
             "mtt_entries, Mtt.build, rc4 and the labeling kernel "
             "dominate and runtime is idle, so ingest gains must not show",
         prefixes=650, windows=24, window_updates=80, burst=(32, 32),
         stream="table", store_fsync="batch", rounds=12, churn=4,
         audits=8, audit_sample=6, exports=False, cold_opens=10),
    Spec(name="audit_sweep",
         why="hub exports too, every commitment audited for both "
             "neighbours with full proof sets: log replay, relabel, "
             "proof generation, one RSA sign per proof and the checker "
             "dominate - the read side of mtt and the log",
         prefixes=120, windows=24, window_updates=80, burst=(8, 8),
         stream="flood", store_fsync="batch", rounds=12, churn=0,
         audits=8, audit_sample=0, exports=True, cold_opens=10),
    Spec(name="durable_churn",
         why="trace-shaped stream (25% withdraws, 5% hot set, bursts of "
             "1-6) under fsync=always, then recovery and more work on "
             "the recovered runtime: singles, signing, fsync and restart",
         prefixes=400, windows=28, window_updates=70, burst=(1, 6),
         stream="trace", store_fsync="always", rounds=12, churn=0,
         audits=10, audit_sample=12, exports=False, cold_opens=10,
         post_windows=4, withdraw_share=0.25, hot_share=0.05,
         warm_windows=4),
)


def spec_named(name: str) -> Spec:
    for spec in SPECS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown workload {name!r}")


def scaled(spec: Spec, scale: float) -> Spec:
    """Shrink (or grow) every size together; unit counts keep their
    floors so medians stay medians."""
    if scale <= 0:
        raise ValueError("scale must be positive")

    def size(value: int, floor: int) -> int:
        return max(floor, int(round(value * scale)))

    half_pairs = size(spec.window_updates // 2, 2)
    return replace(
        spec,
        prefixes=size(spec.prefixes, 12),
        window_updates=2 * half_pairs,
        churn=0 if spec.churn == 0 else size(spec.churn, 2),
        audit_sample=0 if spec.audit_sample == 0
        else size(spec.audit_sample, 2),
        windows=max(MIN_WINDOWS, spec.windows),
        rounds=max(MIN_ROUNDS, spec.rounds),
        audits=max(MIN_AUDITS, spec.audits),
        cold_opens=max(MIN_COLD_OPENS, spec.cold_opens))


@dataclass(frozen=True)
class Update:
    """One scripted update: an announcement, or a withdrawal when
    ``route`` is ``None``."""

    prefix: Prefix
    route: Optional[Route]


@dataclass
class Window:
    """What each peer sends in one closed-loop window, already cut into
    signature bursts."""

    kind: str  # "warm" | "ingest" | "churn" | "post"
    bursts: Dict[int, List[List[Update]]]

    def updates(self) -> int:
        return sum(len(burst) for bursts in self.bursts.values()
                   for burst in bursts)


@dataclass
class Script:
    """Everything the two scripted peers will say, in order."""

    spec: Spec
    windows: List[Window]


def _route(rng: random.Random, prefix: Prefix, peer: int) -> Route:
    return Route(prefix=prefix,
                 as_path=generate_path(rng, _AS_POOL, first_hop=peer),
                 neighbor=peer)


def _cut(rng: random.Random, updates: List[Update],
         burst: Tuple[int, int]) -> List[List[Update]]:
    lo, hi = burst
    out: List[List[Update]] = []
    position = 0
    while position < len(updates):
        size = lo if lo == hi else rng.randint(lo, hi)
        out.append(updates[position:position + size])
        position += size
    return out


class _PeerStream:
    """One peer's seeded update source over its table."""

    def __init__(self, spec: Spec, peer: int, table: List[Prefix],
                 rng: random.Random):
        self.spec = spec
        self.peer = peer
        self.table = table
        self.rng = rng
        self.announced: Dict[Prefix, bool] = {}
        self._walk = 0
        hot = max(1, int(len(table) * spec.hot_share))
        self.hot = rng.sample(table, hot)

    def draw(self, count: int, stream: str) -> List[Update]:
        rng = self.rng
        out: List[Update] = []
        for _ in range(count):
            if stream == "table":
                prefix = self.table[self._walk % len(self.table)]
                self._walk += 1
            else:
                prefix = rng.choice(
                    self.hot if stream == "trace" else self.table)
            if stream == "trace" and self.announced.get(prefix) and \
                    rng.random() < self.spec.withdraw_share:
                self.announced[prefix] = False
                out.append(Update(prefix=prefix, route=None))
            else:
                self.announced[prefix] = True
                out.append(Update(prefix=prefix,
                                  route=_route(rng, prefix, self.peer)))
        return out


def build_script(spec: Spec, seed: int) -> Script:
    """The seeded script of one workload (``spec`` already scaled)."""
    # The prefix population is the same on every seed (as the paper's
    # one RIB snapshot is): MTT size follows prefix lengths, and a
    # table that changed shape with the seed would put that spread into
    # every commitment metric.  The seed draws everything that moves:
    # which prefixes update, their paths, withdrawals and burst cuts.
    table_rng = random.Random(f"e2e-table:{spec.name}")
    snapshot = generate_rib_snapshot(spec.prefixes,
                                     seed=table_rng.getrandbits(30))
    prefixes = [entry.prefix for entry in snapshot]
    # Overlapping tables: peer A carries everything, peer B a fixed
    # three quarters of it (so some prefixes have one input, most two).
    second = sorted(table_rng.sample(prefixes,
                                     max(1, len(prefixes) * 3 // 4)))
    rng = random.Random(f"e2e:{spec.name}:{seed}")
    tables = {PEER_ASNS[0]: prefixes, PEER_ASNS[1]: second}
    streams = {peer: _PeerStream(spec, peer, tables[peer],
                                 random.Random(rng.getrandbits(64)))
               for peer in PEER_ASNS}

    def window(kind: str, updates: int, stream: str,
               burst: Tuple[int, int]) -> Window:
        return Window(kind=kind, bursts={
            peer: _cut(rng, streams[peer].draw(updates // 2, stream),
                       burst)
            for peer in PEER_ASNS})

    def table_walk(kind: str, count: int, burst: Tuple[int, int],
                   at_least: int = 0) -> List[Window]:
        """``count`` windows that announce each peer's table in order:
        once round, or further (re-announcing with fresh paths) until
        every window carries ``at_least`` updates."""
        return [Window(kind=kind, bursts={
            peer: _cut(rng, streams[peer].draw(
                max(-(-len(tables[peer]) // count), at_least // 2),
                "table"), burst)
            for peer in PEER_ASNS}) for _ in range(count)]

    windows = table_walk("warm", spec.warm_windows, (32, 32)) \
        if spec.warm_windows else []
    if spec.stream == "table":
        windows += table_walk("ingest", spec.windows, spec.burst,
                              at_least=spec.window_updates)
    else:
        windows += [window("ingest", spec.window_updates, spec.stream,
                           spec.burst) for _ in range(spec.windows)]
    churn = "flood" if spec.stream == "table" else spec.stream
    windows += [window("churn", spec.churn, churn, spec.burst)
                for _ in range(spec.rounds if spec.churn else 0)]
    windows += [window("post", spec.window_updates, churn, spec.burst)
                for _ in range(spec.post_windows)]
    return Script(spec=spec, windows=windows)
