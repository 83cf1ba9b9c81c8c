"""The SPIDeR checker (Section 6.1).

Runs in the *verifying* AS: given a neighbor's signed commitment and the
proof set that neighbor's proof generator produced, the checker replays
the bit-proof verification of Section 4.5 against its own view of the
world — what it was advertising to the elector and what the elector was
advertising to it at the commitment time.

Checking one proof means rebuilding and re-labeling the path of the MTT
included in it (the dominant cost the paper measures in §7.3) and then
testing the proven bit against the expectation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..bgp.prefix import Prefix
from ..bgp.route import NULL_ROUTE, Route
from ..core.classes import ClassScheme
from ..core.promise import Promise
from ..core.verdict import FaultKind, Verdict
from ..crypto.keys import KeyRegistry
from ..mtt.proofs import LabelDigestCache, verify_proof
from .checkpoint import elector_view
from .proofgen import ProofSet
from .wire import SpiderBitProof, SpiderCommitment, same_millisecond


@dataclass
class CheckReport:
    """Outcome of checking one proof set."""

    verifier: int
    elector: int
    commit_time: float
    verdicts: List[Verdict] = field(default_factory=list)
    proofs_checked: int = 0
    check_seconds: float = 0.0
    #: Path-digest memoization stats for this batch (shared steps across
    #: proofs for the same commitment are hashed once).
    digest_cache_hits: int = 0
    digest_cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return not self.verdicts


class Checker:
    """Per-AS proof checker."""

    def __init__(self, asn: int, registry: KeyRegistry,
                 scheme: ClassScheme):
        self.asn = asn
        self.registry = registry
        self.scheme = scheme
        # Proofs in one batch share most path steps; memoize their
        # digests per (elector, root) so each distinct step hashes once.
        self._digest_cache: Optional[LabelDigestCache] = None
        self._digest_cache_key: Optional[Tuple[object, ...]] = None

    # ------------------------------------------------------------------

    def _cache_for(self, commitment: SpiderCommitment) -> LabelDigestCache:
        key = (commitment.elector, commitment.root)
        if self._digest_cache is None or self._digest_cache_key != key:
            self._digest_cache = LabelDigestCache()
            self._digest_cache_key = key
        return self._digest_cache

    def _verify_one(self, commitment: SpiderCommitment,
                    message: SpiderBitProof,
                    scheme: ClassScheme) -> Optional[int]:
        """Returns the proven bit, or None for any invalidity."""
        if message.elector != commitment.elector:
            return None
        if message.recipient != self.asn:
            return None
        if not same_millisecond(message.commit_time,
                                commitment.commit_time):
            return None
        if not message.valid(self.registry):
            return None
        return verify_proof(commitment.root, message.proof,
                            expected_k=scheme.k,
                            cache=self._cache_for(commitment))

    def check(self, commitment: SpiderCommitment, proofs: ProofSet,
              my_exports_to_elector: Dict[Prefix, Route],
              my_imports_from_elector: Dict[Prefix, Route],
              promise: Optional[Promise],
              watch: Iterable[Prefix] = (),
              elector_scheme: Optional[ClassScheme] = None) -> CheckReport:
        """Full producer-side + consumer-side check of one proof set.

        ``my_exports_to_elector`` — routes this AS was advertising to the
        elector at the commitment time (producer role);
        ``my_imports_from_elector`` — routes the elector was advertising
        to this AS (consumer role); ``watch`` — extra prefixes this AS
        knows about (from other neighbors) and wants ⊥-offers verified
        for.  ``elector_scheme`` overrides the classification scheme when
        the elector's differs from this AS's own (per-elector schemes).
        """
        start = time.perf_counter()
        scheme = elector_scheme if elector_scheme is not None else \
            self.scheme
        cache = self._cache_for(commitment)
        hits_before, misses_before = cache.hits, cache.misses
        report = CheckReport(verifier=self.asn,
                             elector=commitment.elector,
                             commit_time=commitment.commit_time)
        if not commitment.valid(self.registry):
            report.verdicts.append(Verdict(
                detector=self.asn, accused=commitment.elector,
                kind=FaultKind.INVALID_SIGNATURE,
                description="commitment fails validation"))
            report.check_seconds = time.perf_counter() - start
            return report

        self._check_producer_side(commitment, proofs,
                                  my_exports_to_elector, scheme, report)
        if promise is not None:
            self._check_consumer_side(commitment, proofs,
                                      my_imports_from_elector, promise,
                                      watch, scheme, report)
        report.digest_cache_hits = cache.hits - hits_before
        report.digest_cache_misses = cache.misses - misses_before
        report.check_seconds = time.perf_counter() - start
        return report

    # ------------------------------------------------------------------

    def _check_producer_side(self, commitment: SpiderCommitment,
                             proofs: ProofSet,
                             my_exports: Dict[Prefix, Route],
                             scheme: ClassScheme,
                             report: CheckReport) -> None:
        """Section 4.5, producer rule: every route I advertised must be
        proven present (bit 1 in its class)."""
        for prefix, route in my_exports.items():
            my_class = scheme.classify(route)
            message = proofs.producer_proofs.get(prefix)
            if message is None:
                report.verdicts.append(Verdict(
                    detector=self.asn, accused=commitment.elector,
                    kind=FaultKind.MISSING_PROOF,
                    description=f"no proof for our {prefix} input"))
                continue
            report.proofs_checked += 1
            if message.proof.prefix != prefix or \
                    message.proof.class_index != my_class:
                report.verdicts.append(Verdict(
                    detector=self.asn, accused=commitment.elector,
                    kind=FaultKind.INVALID_PROOF,
                    description=f"proof for {prefix} targets the wrong "
                                "prefix or class"))
                continue
            proven = self._verify_one(commitment, message, scheme)
            if proven is None:
                report.verdicts.append(Verdict(
                    detector=self.asn, accused=commitment.elector,
                    kind=FaultKind.INVALID_PROOF,
                    description=f"proof for {prefix} does not match the "
                                "commitment"))
            elif proven != 1:
                report.verdicts.append(Verdict(
                    detector=self.asn, accused=commitment.elector,
                    kind=FaultKind.FALSE_BIT,
                    description=f"our {prefix} route is committed as "
                                "absent"))

    def _check_consumer_side(self, commitment: SpiderCommitment,
                             proofs: ProofSet,
                             my_imports: Dict[Prefix, Route],
                             promise: Promise, watch: Iterable[Prefix],
                             scheme: ClassScheme,
                             report: CheckReport) -> None:
        """Section 4.5, consumer rule: every class my promise ranks above
        the route I received must be proven empty (bit 0)."""
        targets: Dict[Prefix, int] = {}
        for prefix, route in my_imports.items():
            # What the elector sent carries its own prepend; the promise
            # is over the elector's route space, so classify the
            # underlying route.
            targets[prefix] = scheme.classify(
                elector_view(route, commitment.elector))
        null_class = scheme.classify(NULL_ROUTE)
        for prefix in watch:
            targets.setdefault(prefix, null_class)

        for prefix, offer_class in sorted(targets.items()):
            due = promise.classes_above(offer_class)
            if not due:
                continue
            received = {m.proof.class_index: m
                        for m in proofs.consumer_proofs.get(prefix, [])
                        if m.proof.prefix == prefix}
            for class_index in due:
                label = scheme.labels[class_index]
                message = received.get(class_index)
                if message is None:
                    report.verdicts.append(Verdict(
                        detector=self.asn, accused=commitment.elector,
                        kind=FaultKind.MISSING_PROOF,
                        description=f"{prefix}: no proof for preferred "
                                    f"class {label!r}"))
                    continue
                report.proofs_checked += 1
                proven = self._verify_one(commitment, message, scheme)
                if proven is None:
                    report.verdicts.append(Verdict(
                        detector=self.asn, accused=commitment.elector,
                        kind=FaultKind.INVALID_PROOF,
                        description=f"{prefix}: proof for class "
                                    f"{label!r} does not match the "
                                    "commitment"))
                elif proven != 0:
                    report.verdicts.append(Verdict(
                        detector=self.asn, accused=commitment.elector,
                        kind=FaultKind.BROKEN_PROMISE,
                        description=f"{prefix}: class {label!r} "
                                    "preferred over our route is proven "
                                    "non-empty"))
