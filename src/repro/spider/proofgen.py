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

Neighbors almost always ask about the commitment just broadcast, and
the recorder still holds that tree, labeled under its seed.  So the
latest commitment is proved from the recorder's retained tree
(:meth:`Recorder.committed_tree`) once the replayed state is checked
against it, and only an older commitment — or any after a restart — is
rebuilt and relabeled from the seed (:meth:`ProofGenerator.rebuild`).
Every neighbor verifying the same commitment needs the *same*
reconstruction, so the generator keeps the last one while it is
current: N neighbors asking for one commit time in a row trigger one
replay, not N.  The recorder's next round edits or relabels its tree,
which makes a reconstruction taken from it stale; a stale one is never
served and never proved from.  A reconstruction also keeps each
prefix's path once it has been walked (:class:`~repro.mtt.proofs.
ProofWalk`), so every proof of that prefix, for every neighbor, shares
one walk and its bytes; the walks die with the reconstruction.

A replay resumes from the generator's last one (``replay(...,
since=...)``): the next commitment asked for is usually the next one
logged, so an audit folds the entries logged since the previous audit,
not the whole log.  The generator keeps its own copy of that state and
never hands it out; :meth:`ProofGenerator.rebuild` replays in full.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..bgp.prefix import Prefix
from ..crypto.hashing import constant_time_eq
from ..bgp.route import NULL_ROUTE
from ..crypto.rc4 import Rc4Csprng
# Imported under the name benchmarks/e2e/layers.py TARGETS wraps here.
from ..mtt.labeling import label_tree_parallel as label_tree_with_workers
from ..mtt.proofs import ProofWalk, generate_proof, generate_proofs
from ..mtt.tree import Mtt
from .checkpoint import elector_view, replay
from .codec import encode_message
from .log import LogEntry
from .recorder import Recorder
from .state import RoutingState
from .wire import SpiderBitProof


_REPLAY_BROKEN = ("reconstructed MTT root differs from the committed "
                  "root — log replay is broken")


@dataclass
class Reconstruction:
    """The labeled MTT of one past commitment and the state it covers:
    the recorder's retained tree or a rebuilt one."""

    commit_time: float
    tree: Mtt
    root: bytes
    state: RoutingState
    #: ``tree.version`` when the reconstruction was taken.
    version: int
    #: prefix → its path in ``tree``, walked for the first proof of it
    #: and shared by every later one, whoever it is for.  Only read
    #: while the reconstruction is :attr:`current`.
    walks: Dict[Prefix, ProofWalk] = field(default_factory=dict,
                                           compare=False, repr=False)

    @property
    def current(self) -> bool:
        """Whether the tree still carries this commitment: an edit
        moves its version, a relabel its root.  Nothing edits or
        relabels a rebuilt tree."""
        label = self.tree.root.label
        return self.tree.version == self.version and label is not None \
            and constant_time_eq(label, self.root)


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

    def encoded_size(self) -> int:
        """The codec bytes of every proof: what the set costs on the
        wire (§7.6's proof traffic)."""
        return sum(len(encode_message(p)) for p in self.all_proofs())

    def proof_count(self) -> int:
        return len(self.producer_proofs) + \
            sum(len(v) for v in self.consumer_proofs.values())


class ProofGenerator:
    """Builds proof sets from a recorder's log.

    The last reconstruction is kept while it is current: it is a pure
    function of the log contents up to its commitment, so it serves
    every neighbor that asks for the same commit time next.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._last: Optional[Reconstruction] = None
        #: (commitment index, a private copy of the state replayed up
        #: to it) of the last reconstruction that checked out: where the
        #: next replay resumes.
        self._replayed: Optional[Tuple[int, RoutingState]] = None
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def asn(self) -> int:
        return self.recorder.asn

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def reconstruct(self, commit_time: float) -> Reconstruction:
        """Replay the log to a past commitment and take its MTT: the
        recorder's retained tree if it is labeled for that commitment,
        else a rebuild."""
        entry = self.commitment(commit_time)
        last = self._last
        if last is not None and last.current and \
                last.commit_time == entry.timestamp:
            self.cache_hits += 1
            return last
        self.cache_misses += 1
        self._last = None  # no second tree held while one is built
        self._last = self._reconstruct(entry, cached=True)
        return self._last

    def rebuild(self, commit_time: float) -> Reconstruction:
        """The §6.5 reconstruction from the log alone: replay, build,
        relabel from the logged seed.  Uncached, and never reads the
        recorder's tree."""
        return self._reconstruct(self.commitment(commit_time),
                                 cached=False)

    def commitment(self, commit_time: float) -> LogEntry:
        """The COMMITMENT entry at ``commit_time`` (millisecond grid)."""
        entry = self.recorder.log.commitment_at(commit_time)
        if entry is None:
            raise ValueError(f"no commitment logged at t={commit_time}")
        return entry

    def _reconstruct(self, entry: LogEntry,
                     cached: bool) -> Reconstruction:
        """Replay, then take the retained tree or rebuild.  ``cached``
        lets the replay resume and the retained tree serve; without it
        this is :meth:`rebuild`."""
        recorder = self.recorder
        root = entry.payload["root"]

        # Cut at the commitment's log position, not its timestamp: an
        # entry logged in the same millisecond after the commitment is
        # not part of the committed state.
        state = replay(recorder.log, recorder.asn,
                       before_index=entry.index,
                       since=self._replayed if cached else None)
        entries = recorder.mtt_entries(state)
        tree = recorder.committed_tree(entry.timestamp) if cached \
            else None
        if tree is None:
            tree = Mtt.build(entries)
            # Rebuilds are the same workload as live commitments (§6.5
            # replay), so they run on the recorder's labeling pool.
            label_tree_with_workers(
                tree, Rc4Csprng(entry.payload["seed"]),
                workers=recorder.config.commit_workers,
                pool=recorder.labeling_pool())
            # Labeled once and then only read by proof generation:
            # nothing reads a schedule after the hash pass.
            tree.release_schedule()
        elif tree.census().prefix != len(entries) or any(
                tree.bits_for(prefix) != bits
                for prefix, bits in entries.items()):
            # The retained tree is the commitment's; the replay must
            # arrive at it, as a rebuild must arrive at its root.
            raise RuntimeError(_REPLAY_BROKEN)
        label = tree.root.label
        if label is None or not constant_time_eq(label, root):
            raise RuntimeError(_REPLAY_BROKEN)
        if cached:
            self._replayed = (entry.index, state.copy())
        return Reconstruction(commit_time=entry.timestamp, tree=tree,
                              root=root, state=state,
                              version=tree.version)

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
        A reconstruction whose tree has moved on proves nothing, so its
        walks are read only while it is current.
        """
        if not reconstruction.current:
            raise ValueError(
                f"reconstruction for t={reconstruction.commit_time} is "
                "stale: the recorder has edited or relabeled its tree")
        state = reconstruction.state
        tree = reconstruction.tree
        walks = reconstruction.walks
        commit_time = reconstruction.commit_time
        scheme = self.recorder.scheme
        start = time.perf_counter()
        result = ProofSet(elector=self.asn, recipient=neighbor,
                          commit_time=commit_time)
        signer = self.recorder.signer
        imports = state.imports.get(neighbor, {})
        for prefix in produced:
            if prefix in imports:
                proof = generate_proof(tree, prefix,
                                       scheme.classify(imports[prefix]),
                                       walks)
                result.producer_proofs[prefix] = SpiderBitProof.make(
                    signer, neighbor, commit_time, proof)
        promise = self.recorder.promises.get(neighbor)
        if promise is not None:
            exports = state.exports.get(neighbor, {})
            for prefix in consumed:
                if tree.prefix_node(prefix) is None:
                    continue  # nothing committed for this prefix
                offer = exports.get(prefix, NULL_ROUTE)
                if offer is not NULL_ROUTE:
                    offer = elector_view(offer, self.asn)
                due = promise.classes_above(scheme.classify(offer))
                if due:
                    result.consumer_proofs[prefix] = [
                        SpiderBitProof.make(signer, neighbor, commit_time,
                                            proof)
                        for proof in generate_proofs(tree, prefix, due,
                                                     walks)]
        result.generation_seconds = time.perf_counter() - start
        return result
