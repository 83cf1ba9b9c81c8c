"""VPref — the paper's core contribution (Section 4).

Collaborative verification of promises about private route choices:
promises partition routes into indifference classes with a partial
preference order; the elector commits to one bit per class; producers and
consumers each verify one small lemma using only what they already know.
"""

from .adjacency import ADJACENCY_BASE, adjacency_id, adjacency_owner, \
    dummy_adjacencies, register_adjacencies
from .bits import available_classes, class_rows, compute_bits, \
    conforming_offer, honest_choice, offer_conforms
from .classes import ClassScheme, Classifier, RouteOrNull, \
    local_pref_scheme, partial_transit_scheme, path_length_scheme, \
    relation_scheme, relation_with_path_length_scheme, \
    selective_export_scheme
from .collusion import masking_assignment, offer_conforms_with_classes, \
    violation_detectable
from .commitment import FlatBitProof, FlatOpening, verify_flat_proof
from .consumer import Consumer
from .elector import Behavior, CommitmentPhaseOutput, Elector, HONEST
from .producer import Producer
from .promise import InconsistentPromiseError, OrderPair, Promise, \
    chain_promise, find_conflict, signed_promise, total_order_promise, \
    trivial_promise, verify_signed_promise
from .protocol import RoundResult, run_round
from .verdict import ConsumerChallengePoM, EquivocationPoM, FaultKind, \
    ProducerChallengePoM, ProofOfMisbehavior, Verdict, validate_pom
from .wire import AdvertAck, BitProofMsg, CommitmentMsg, OfferMsg, \
    RouteAdvert, VerifyRequest

__all__ = [
    "ADJACENCY_BASE", "adjacency_id", "adjacency_owner",
    "dummy_adjacencies", "register_adjacencies",
    "available_classes", "class_rows", "compute_bits", "conforming_offer",
    "honest_choice", "offer_conforms",
    "ClassScheme", "Classifier", "RouteOrNull", "local_pref_scheme",
    "partial_transit_scheme", "path_length_scheme", "relation_scheme",
    "relation_with_path_length_scheme", "selective_export_scheme",
    "masking_assignment", "offer_conforms_with_classes",
    "violation_detectable",
    "FlatBitProof", "FlatOpening", "verify_flat_proof",
    "Consumer", "Behavior", "CommitmentPhaseOutput", "Elector", "HONEST",
    "Producer",
    "InconsistentPromiseError", "OrderPair", "Promise", "chain_promise",
    "find_conflict", "signed_promise", "total_order_promise",
    "trivial_promise", "verify_signed_promise",
    "RoundResult", "run_round",
    "ConsumerChallengePoM", "EquivocationPoM", "FaultKind",
    "ProducerChallengePoM", "ProofOfMisbehavior", "Verdict",
    "validate_pom",
    "AdvertAck", "BitProofMsg", "CommitmentMsg", "OfferMsg", "RouteAdvert",
    "VerifyRequest",
]
