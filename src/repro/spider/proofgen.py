"""The SPIDeR proof generator (Section 6.1 / 6.5).

When verification is triggered for a commitment at time t, the proof
generator (a) replays the log from the last checkpoint to reconstruct the
routing state at t, (b) rebuilds the MTT with the blinding bitstrings
regenerated from the logged CSPRNG seed, and (c) produces, per neighbor,
the bit proofs that neighbor is due:

* as a *producer* — a 1-proof for the class of each route it was
  advertising to us at t;
* as a *consumer* — 0-proofs for every class its promise ranks above the
  class of the route we were exporting to it at t (⊥ where we exported
  nothing it asks about).

Proofs are only ever volunteered for exported prefixes; for non-exported
prefixes the consumer must name the prefix (``watch`` set), because
volunteering a ⊥-proof for an unasked prefix would reveal that the
prefix exists in our table.

Reconstruction (replay + relabel) is by far the dominant cost of a
verification round, and every neighbor verifying the same commitment
needs the *same* reconstruction, so the generator keeps a small LRU
cache keyed by commit time (:data:`RECONSTRUCTION_CACHE` entries): N
neighbors trigger one rebuild, not N.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from ..bgp.prefix import Prefix
from ..crypto.hashing import constant_time_eq
from ..bgp.route import NULL_ROUTE
from ..crypto.rc4 import Rc4Csprng
# Imported under the name benchmarks/e2e/layers.py TARGETS wraps here.
from ..mtt.labeling import label_tree_parallel as label_tree_with_workers
from ..mtt.proofs import generate_proof
from ..mtt.tree import Mtt
from .checkpoint import RoutingState, elector_view, replay
from .recorder import Recorder
from .wire import SpiderBitProof

#: Past-commitment reconstructions (replay + relabel) a generator keeps,
#: so N neighbors verifying the same interval trigger one rebuild.
RECONSTRUCTION_CACHE = 8


@dataclass
class Reconstruction:
    """A rebuilt MTT for one past commitment, with timing breakdown."""

    commit_time: float
    tree: Mtt
    root: bytes
    state: RoutingState
    replay_seconds: float
    label_seconds: float


@dataclass
class ProofSet:
    """Everything one neighbor receives for one verification."""

    elector: int
    recipient: int
    commit_time: float
    #: prefix → the 1-proof for the class of the neighbor's own input.
    producer_proofs: Dict[Prefix, SpiderBitProof] = field(
        default_factory=dict)
    #: prefix → the 0-proofs for classes above the offered route's class.
    consumer_proofs: Dict[Prefix, List[SpiderBitProof]] = field(
        default_factory=dict)
    generation_seconds: float = 0.0

    def all_proofs(self) -> List[SpiderBitProof]:
        out = list(self.producer_proofs.values())
        for proofs in self.consumer_proofs.values():
            out.extend(proofs)
        return out

    def wire_size(self) -> int:
        return sum(p.wire_size() for p in self.all_proofs())

    def proof_count(self) -> int:
        return len(self.producer_proofs) + \
            sum(len(v) for v in self.consumer_proofs.values())


class ProofGenerator:
    """Builds proof sets from a recorder's log.

    Reconstructions are cached (LRU by commit time, capacity
    :data:`RECONSTRUCTION_CACHE`): a reconstruction is a
    pure function of the log contents up to that commitment, so as long
    as the commitment exists it can be reused for every neighbor
    verifying that interval.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._cache: "OrderedDict[float, Reconstruction]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def asn(self) -> int:
        return self.recorder.asn

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def reconstruct(self, commit_time: float,
                    use_cache: bool = True) -> Reconstruction:
        """Replay the log and rebuild the MTT for a past commitment."""
        if use_cache and commit_time in self._cache:
            self.cache_hits += 1
            self._cache.move_to_end(commit_time)
            return self._cache[commit_time]
        self.cache_misses += 1
        reconstruction = self._reconstruct(commit_time)
        if use_cache:
            self._cache[commit_time] = reconstruction
            while len(self._cache) > RECONSTRUCTION_CACHE:
                self._cache.popitem(last=False)
        return reconstruction

    def _reconstruct(self, commit_time: float) -> Reconstruction:
        recorder = self.recorder
        entry = recorder.log.commitment_at(commit_time)
        if entry is None:
            raise ValueError(f"no commitment logged at t={commit_time}")
        seed = entry.payload["seed"]

        start = time.perf_counter()
        # Cut at the commitment's log position, not its timestamp: an
        # entry logged in the same millisecond after the commitment is
        # not part of the committed state.
        state = replay(recorder.log, recorder.asn,
                       before_index=entry.index)
        entries = recorder.mtt_entries(state)
        tree = Mtt.build(entries)
        replay_seconds = time.perf_counter() - start

        # Reconstructions are the same workload as live commitments
        # (§6.5 replay), so they run on the recorder's labeling pool.
        report = label_tree_with_workers(
            tree, Rc4Csprng(seed),
            workers=recorder.config.commit_workers,
            pool=recorder.labeling_pool())
        # Labeled once and then only read by proof generation: the
        # cache holds up to ``RECONSTRUCTION_CACHE`` of these
        # trees, and nothing reads a schedule after the hash pass.
        tree.release_schedule()
        if not constant_time_eq(report.root_label,
                                entry.payload["root"]):
            raise RuntimeError(
                "reconstructed MTT root differs from the committed root — "
                "log replay is broken"
            )
        return Reconstruction(commit_time=commit_time, tree=tree,
                              root=report.root_label, state=state,
                              replay_seconds=replay_seconds,
                              label_seconds=report.seconds)

    # ------------------------------------------------------------------
    # Proof sets

    def proofs_for(self, reconstruction: Reconstruction, neighbor: int,
                   watch: Iterable[Prefix] = ()) -> ProofSet:
        """All proofs ``neighbor`` is due for one commitment: as a
        producer for every prefix it advertised, as a consumer for
        every prefix we exported to it or it asks about."""
        state = reconstruction.state
        return self._proof_set(
            reconstruction, neighbor,
            produced=state.imports.get(neighbor, {}),
            consumed=set(state.exports.get(neighbor, {})) | set(watch))

    def proofs_for_prefix(self, reconstruction: Reconstruction,
                          neighbor: int, prefix: Prefix) -> ProofSet:
        """Single-prefix verification (the §7.3 'route to Google' case)."""
        return self._proof_set(reconstruction, neighbor,
                               produced=(prefix,), consumed=(prefix,))

    def _proof_set(self, reconstruction: Reconstruction, neighbor: int,
                   produced: Iterable[Prefix],
                   consumed: Iterable[Prefix]) -> ProofSet:
        """``neighbor``'s proofs over the named prefixes.

        Producer side: a 1-proof for the class of the route it was
        advertising, for each of ``produced`` it advertised.  Consumer
        side: for each of ``consumed`` that is in the commitment, the
        0-proofs for every class its promise ranks above our offer.
        """
        state = reconstruction.state
        tree = reconstruction.tree
        commit_time = reconstruction.commit_time
        scheme = self.recorder.scheme
        start = time.perf_counter()
        result = ProofSet(elector=self.asn, recipient=neighbor,
                          commit_time=commit_time)
        imports = state.imports.get(neighbor, {})
        for prefix in produced:
            if prefix in imports:
                result.producer_proofs[prefix] = self._signed_proof(
                    tree, neighbor, commit_time, prefix,
                    scheme.classify(imports[prefix]))
        promise = self.recorder.promises.get(neighbor)
        if promise is not None:
            exports = state.exports.get(neighbor, {})
            for prefix in consumed:
                if tree.prefix_node(prefix) is None:
                    continue  # nothing committed for this prefix
                offer = exports.get(prefix, NULL_ROUTE)
                if offer is not NULL_ROUTE:
                    offer = elector_view(offer, self.asn)
                proofs = [
                    self._signed_proof(tree, neighbor, commit_time,
                                       prefix, class_index)
                    for class_index in promise.classes_above(
                        scheme.classify(offer))
                ]
                if proofs:
                    result.consumer_proofs[prefix] = proofs
        result.generation_seconds = time.perf_counter() - start
        return result

    def _signed_proof(self, tree: Mtt, recipient: int, commit_time: float,
                      prefix: Prefix, class_index: int) -> SpiderBitProof:
        proof = generate_proof(tree, prefix, class_index)
        return SpiderBitProof.make(self.recorder.signer, recipient,
                                   commit_time, proof)
