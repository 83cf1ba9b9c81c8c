"""Experiment runners shared by the benchmark suite.

Each function reproduces one piece of the paper's Section 7 evaluation
at a configurable scale and returns a structured result; the benchmark
modules print the same rows the paper reports and assert the qualitative
*shape* (who wins, what dominates, how things scale).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.commitment import FlatOpening
from ..crypto.rc4 import Rc4Csprng
from ..mtt.labeling import label_tree
from ..mtt.stats import PAPER_CENSUS
from ..mtt.tree import Mtt, NodeCensus
from ..netsim.network import BGP_TRAFFIC, Network, TraceEvent
from ..netsim.topology import FOCUS_AS, INJECTION_AS, figure5_topology
from ..obs.dump import cpu_split
from ..obs.registry import Registry, get_registry
from ..spider.config import SpiderConfig
from ..spider.log import EntryKind, encode_entry
from ..runtime.node_runtime import SpiderDeployment
from ..spider.node import PROOF_TRAFFIC, SPIDER_TRAFFIC, evaluation_scheme
from ..spider.proofgen import ProofGenerator
from ..traces.routeviews import PAPER_COMMIT_INTERVAL, SyntheticTrace, \
    TraceConfig, synthetic_trace
from ..traces.workload import generate_prefixes

FEED = 65000


# ----------------------------------------------------------------------
# The main replay experiment (powers E8/E9/E10 and parts of E3)


#: Bytes sent, by ``(node, category)``: one reading of the
#: ``traffic_bytes_total`` series.
Traffic = Dict[Tuple[str, str], int]


def read_traffic(registry: Registry) -> Traffic:
    """Every ``traffic_bytes_total`` series, by ``(node, category)``."""
    out: Traffic = {}
    for metric in registry.metrics():
        if metric.name == "traffic_bytes_total":
            labels = dict(metric.labels)
            out[labels["node"], labels["category"]] = int(metric.value)
    return out


def _sent_between(before: Traffic, after: Traffic) -> Traffic:
    return {key: nbytes - before.get(key, 0)
            for key, nbytes in after.items()}


@dataclass
class ReplayResult:
    """Everything the §7.5–§7.7 measurements need from one run."""

    scale: float
    k: int
    commit_interval: float
    trace: SyntheticTrace
    network: Network
    deployment: SpiderDeployment
    setup_end: float
    replay_end: float
    commitments_made: int
    #: CPU seconds by section at AS 5, replay period only.
    cpu_sections: Dict[str, float]
    signature_count: int
    last_census: Optional[NodeCensus]
    #: Bytes sent in the half-open replay window ``[setup_end,
    #: replay_end)``: each edge was read before anything stamped at it
    #: ran.
    window_traffic: Traffic
    #: Bytes sent over the whole run.
    traffic: Traffic

    # -- Section 7.6 -----------------------------------------------------
    def traffic_bytes(self, asn: int, category: str) -> int:
        """What ``asn`` sent under ``category`` over the whole run."""
        return self.traffic.get((f"as{asn}", category), 0)

    def _rate_bps(self, category: str) -> float:
        """AS 5's average send rate over the replay window, in the
        paper's bits per second."""
        sent = self.window_traffic.get((f"as{FOCUS_AS}", category), 0)
        return sent * 8 / (self.replay_end - self.setup_end)

    def bgp_rate_bps(self) -> float:
        return self._rate_bps(BGP_TRAFFIC)

    def spider_rate_bps(self) -> float:
        return self._rate_bps(SPIDER_TRAFFIC)

    # -- Section 7.7 -----------------------------------------------------
    def log_bytes_replay(self) -> int:
        log = self.deployment.node(FOCUS_AS).recorder.log
        return sum(e.size_bytes
                   for e in log.entries_between(self.setup_end,
                                                self.replay_end)
                   if e.kind not in (EntryKind.CHECKPOINT,))

    def log_rate_bytes_per_minute(self) -> float:
        window = (self.replay_end - self.setup_end) / 60.0
        return self.log_bytes_replay() / window if window else 0.0

    def commitment_bytes(self) -> int:
        log = self.deployment.node(FOCUS_AS).recorder.log
        return sum(e.size_bytes for e in log.of_kind(EntryKind.COMMITMENT))

    def snapshot_bytes(self) -> int:
        """AS 5's routing state as one CHECKPOINT entry."""
        state = self.deployment.node(FOCUS_AS).recorder.state
        return len(encode_entry(EntryKind.CHECKPOINT, self.replay_end,
                                state))

    # -- Section 7.5 -----------------------------------------------------
    def cpu_breakdown(self) -> Dict[str, float]:
        """signatures / mtt / other: the §7.5 split of
        :func:`repro.obs.dump.cpu_split`."""
        return cpu_split(self.cpu_sections)

    def cpu_total(self) -> float:
        breakdown = self.cpu_breakdown()
        return sum(breakdown.values())

    def netreview_cpu(self) -> float:
        """NetReview's cost on the same workload: everything minus MTT
        generation (§7.5: 'NetReview would have incurred exactly the
        same costs, except for the MTT generation')."""
        return self.cpu_total() - self.cpu_breakdown()["mtt"]


def run_replay_experiment(scale: float = 0.002, k: int = 10,
                          seed: int = 42,
                          commit_interval: Optional[float] = None,
                          ) -> ReplayResult:
    """The §7.2 methodology: populate the tables over a setup period,
    then replay a bursty update trace with periodic commitments at the
    focus AS, measuring everything at AS 5."""
    config = TraceConfig(scale=scale, seed=seed)
    trace = synthetic_trace(config)
    if commit_interval is None:
        # Scale the 60-second interval with the trace so the number of
        # commitments per replay period matches the paper's (~13).
        commit_interval = max(PAPER_COMMIT_INTERVAL * scale, 0.05)

    registry = get_registry()  # the one everything below reports to
    network = Network(figure5_topology())
    deployment = SpiderDeployment(
        network, scheme=evaluation_scheme(k),
        config=SpiderConfig(commit_interval=commit_interval,
                            delta=commit_interval / 2,
                            nagle_delay=min(0.05,
                                            commit_interval / 10)))

    traffic_before = read_traffic(registry)
    # The traffic window's edges are read first among the events at
    # their instants (ties run in scheduling order, and nothing else is
    # scheduled yet): a byte sent at exactly setup_end is in the
    # window, one sent at exactly replay_end is not.
    edges: List[Traffic] = []
    for edge in (trace.setup_end, trace.replay_end):
        network.sim.at(edge, lambda: edges.append(read_traffic(registry)))
    network.attach_feed(INJECTION_AS, feed_asn=FEED)
    network.schedule_trace(FEED, trace.all_events)

    # Setup period: converge the snapshot, then read the CPU sections.
    network.run_until(trace.setup_end)
    node_label = f"as{FOCUS_AS}"
    node5 = deployment.node(FOCUS_AS)

    def cpu_seconds() -> Dict[str, float]:
        return registry.label_values("cpu_seconds_total", "section",
                                     node=node_label)

    cpu_before = cpu_seconds()
    sigs_before = registry.total("signatures_made_total", node=node_label)

    # Replay period with periodic commitments at the focus AS.
    recorder = node5.recorder
    network.sim.every(commit_interval,
                      lambda: recorder.make_commitment(),
                      until=trace.replay_end)
    network.run_until(trace.replay_end + 1.0)

    cpu_after = cpu_seconds()
    cpu_sections = {
        name: cpu_after.get(name, 0.0) - cpu_before.get(name, 0.0)
        for name in set(cpu_after) | set(cpu_before)
    }
    periodic_count = len(recorder.commitments)

    # Verification targets a quiescent commitment, as in the paper ("we
    # ran the experiment to completion and then triggered
    # verification"): let in-flight messages drain, then commit once
    # more.  Mid-churn commitments would need the §6.4 input windows,
    # exercised separately in tests/spider/test_windows.py.
    network.settle()
    recorder.make_commitment()
    network.settle()
    records = recorder.commitments
    last_census = None
    if records:
        reconstruction = node5.proofgen.reconstruct(
            records[-1].commit_time)
        last_census = reconstruction.tree.census()
    return ReplayResult(
        scale=scale, k=k, commit_interval=commit_interval, trace=trace,
        network=network, deployment=deployment,
        setup_end=trace.setup_end, replay_end=trace.replay_end,
        commitments_made=periodic_count, cpu_sections=cpu_sections,
        signature_count=int(registry.total("signatures_made_total",
                                           node=node_label)
                            - sigs_before),
        last_census=last_census, window_traffic=_sent_between(*edges),
        traffic=_sent_between(traffic_before, read_traffic(registry)))


# ----------------------------------------------------------------------
# MTT microbenchmarks (E3/E4)


@dataclass
class MttSizeResult:
    n_prefixes: int
    k: int
    census: NodeCensus
    build_seconds: float
    paper_census: NodeCensus = PAPER_CENSUS

    def scaled_to_paper(self) -> NodeCensus:
        """Project the measured composition to the paper's prefix count."""
        factor = 389_653 / self.census.prefix if self.census.prefix else 0
        return NodeCensus(
            inner=round(self.census.inner * factor),
            prefix=round(self.census.prefix * factor),
            bit=round(self.census.bit * factor),
            dummy=round(self.census.dummy * factor))


def mtt_size_experiment(n_prefixes: int = 4000, k: int = 50,
                        seed: int = 7) -> MttSizeResult:
    prefixes = generate_prefixes(n_prefixes, seed=seed)
    entries = {p: [1] * k for p in prefixes}
    start = time.perf_counter()
    tree = Mtt.build(entries)
    build_seconds = time.perf_counter() - start
    return MttSizeResult(n_prefixes=n_prefixes, k=k,
                         census=tree.census(),
                         build_seconds=build_seconds)


@dataclass
class LabelingResult:
    n_prefixes: int
    k: int
    #: Hash phase of the serial kernel
    #: (:func:`repro.mtt.labeling.label_tree`), best of the rounds on
    #: one tree.
    sequential_seconds: float
    hash_count: int


def labeling_experiment(n_prefixes: int = 2000, k: int = 50,
                        seed: int = 7) -> LabelingResult:
    """Serial labeling time: the hash phase, best of two rounds
    relabeling one tree."""
    prefixes = generate_prefixes(n_prefixes, seed=seed)
    tree = Mtt.build({p: [1] * k for p in prefixes})
    serial = [label_tree(tree, Rc4Csprng(b"label-exp"))
              for _ in range(2)]
    return LabelingResult(n_prefixes=n_prefixes, k=k,
                          sequential_seconds=min(r.seconds
                                                 for r in serial),
                          hash_count=serial[0].hash_count)


# ----------------------------------------------------------------------
# Proof generation and checking (E5/E6)


@dataclass
class ProofResult:
    #: The §6.5 rebuild from the log alone (replay, build, relabel).
    rebuild_seconds: float
    #: The last commitment served through ``reconstruct``: replay, and
    #: the recorder's retained tree checked against it.
    reconstruct_seconds: float
    generation_seconds: float
    per_neighbor_bytes: Dict[int, int]
    per_neighbor_count: Dict[int, int]
    single_prefix_seconds: float
    single_prefix_bytes: int
    check_seconds: Dict[int, float]
    checks_ok: bool

    def average_proof_set_bytes(self) -> float:
        if not self.per_neighbor_bytes:
            return 0.0
        return sum(self.per_neighbor_bytes.values()) / \
            len(self.per_neighbor_bytes)


def proof_experiment(replay: ReplayResult) -> ProofResult:
    """Generate and check proof sets for every neighbor of AS 5."""
    deployment = replay.deployment
    node5 = deployment.node(FOCUS_AS)
    record = node5.recorder.commitments[-1]

    start = time.perf_counter()
    node5.proofgen.rebuild(record.commit_time)
    rebuild_seconds = time.perf_counter() - start
    # A generator of its own, so the replay experiment's reconstruction
    # of this commitment is not a cache hit here.
    start = time.perf_counter()
    reconstruction = ProofGenerator(node5.recorder).reconstruct(
        record.commit_time)
    reconstruct_seconds = time.perf_counter() - start

    outcomes = deployment.verify(FOCUS_AS,
                                 commit_time=record.commit_time)
    per_bytes = {o.neighbor: o.proofs.encoded_size() for o in outcomes}
    per_count = {o.neighbor: o.proofs.proof_count() for o in outcomes}
    generation = sum(o.proofs.generation_seconds for o in outcomes)
    check_seconds = {o.neighbor: o.report.check_seconds for o in outcomes}
    ok = all(o.report.ok for o in outcomes)

    # Single-prefix verification (the 'route to Google' promise).
    some_prefix = replay.trace.snapshot[0].prefix
    single = node5.proofgen.proofs_for_prefix(reconstruction, 7,
                                              some_prefix)
    return ProofResult(
        rebuild_seconds=rebuild_seconds,
        reconstruct_seconds=reconstruct_seconds,
        generation_seconds=generation,
        per_neighbor_bytes=per_bytes, per_neighbor_count=per_count,
        single_prefix_seconds=single.generation_seconds,
        single_prefix_bytes=single.encoded_size(),
        check_seconds=check_seconds, checks_ok=ok)


# ----------------------------------------------------------------------
# Ablation A2: per-prefix flat VPref vs one MTT


@dataclass
class FlatVsMttResult:
    n_prefixes: int
    k: int
    flat_seconds: float
    flat_commitment_bytes: int
    mtt_seconds: float
    mtt_commitment_bytes: int
    flat_reveals_prefix_set: bool = True  # one root per prefix


def flat_vs_mtt_experiment(n_prefixes: int = 500, k: int = 50,
                           seed: int = 7) -> FlatVsMttResult:
    """§5.1: running one VPref instance per prefix leaks which prefixes
    exist and multiplies commitment traffic; the MTT fixes both."""
    prefixes = generate_prefixes(n_prefixes, seed=seed)
    bits = [1] * k

    start = time.perf_counter()
    roots: List[bytes] = []
    csprng = Rc4Csprng(b"flat-exp")
    for _prefix in prefixes:
        roots.append(FlatOpening(bits, csprng).root)
    flat_seconds = time.perf_counter() - start
    flat_bytes = sum(len(r) for r in roots)

    entries = {p: bits for p in prefixes}
    start = time.perf_counter()
    tree = Mtt.build(entries)
    report = label_tree(tree, Rc4Csprng(b"flat-exp"))
    mtt_seconds = time.perf_counter() - start
    return FlatVsMttResult(
        n_prefixes=n_prefixes, k=k, flat_seconds=flat_seconds,
        flat_commitment_bytes=flat_bytes, mtt_seconds=mtt_seconds,
        mtt_commitment_bytes=len(report.root_label))
