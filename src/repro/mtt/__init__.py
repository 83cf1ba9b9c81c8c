"""The modified ternary tree (Section 5): scaling VPref to many prefixes.

One MTT commits to the VPref input bits of every reachable prefix at
once; bit proofs reveal nothing about the presence or absence of any
other prefix because dummy labels are indistinguishable from subtree
hashes.
"""

from .aggregation import aggregate_bits, aggregation_candidates, \
    aggregation_overhead, sibling, with_aggregates
from .labeling import LabelingReport, assign_randomness, \
    compute_label, label_tree, label_tree_parallel
from .nodes import BitNode, DummyNode, EDGE_END, EDGE_ONE, EDGE_ZERO, \
    EDGES, InnerNode, MttNode, PrefixNode, validate_structure
from .pool import LabelPool, PoolBrokenError, RoundResult, subtree_jobs
from .proofs import LabelDigestCache, MttBitProof, PathStep, ProofError, \
    generate_proof, generate_proofs, verify_proof
from .stats import PAPER_CENSUS, PAPER_MTT_BYTES, predict_census, \
    slot_identity_holds
from .tree import FlatSchedule, Mtt, NodeCensus

__all__ = [
    "aggregate_bits", "aggregation_candidates", "aggregation_overhead",
    "sibling", "with_aggregates",
    "LabelingReport", "assign_randomness", "compute_label",
    "label_tree", "label_tree_parallel",
    "BitNode", "DummyNode", "EDGE_END", "EDGE_ONE", "EDGE_ZERO", "EDGES",
    "InnerNode", "MttNode", "PrefixNode", "validate_structure",
    "LabelPool", "PoolBrokenError", "RoundResult", "subtree_jobs",
    "LabelDigestCache", "MttBitProof", "PathStep", "ProofError",
    "generate_proof", "generate_proofs", "verify_proof",
    "PAPER_CENSUS", "PAPER_MTT_BYTES", "predict_census",
    "slot_identity_holds",
    "FlatSchedule", "Mtt", "NodeCensus",
]
