"""Analytic size model for MTTs (the §7.3 'MTT size' numbers).

Besides the exact census available from a built tree
(:meth:`repro.mtt.tree.Mtt.census`), the evaluation needs projections to
paper scale (391,028 prefixes — too many nodes to build in a Python test
run).  This module predicts node counts for a prefix population without
building the tree, using the same trie construction rules, and provides
the paper's reference census for comparison.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from ..bgp.prefix import Prefix
from .tree import NodeCensus

#: The census the paper reports for AS 5's last commitment (§7.3).
PAPER_CENSUS = NodeCensus(inner=950_372, prefix=389_653,
                          bit=19_482_650, dummy=1_511_092)

#: Memory the paper reports for that MTT, in bytes.
PAPER_MTT_BYTES = int(137.5 * 1024 * 1024)


def predict_census(prefixes: Iterable[Prefix],
                   classes_per_prefix: int) -> NodeCensus:
    """Node counts of the minimal MTT for ``prefixes`` without building it.

    Inner nodes are the distinct bit-paths that are prefixes (proper or
    not) of some announced prefix, including the empty path; dummies fill
    the remaining child slots: ``dummy = 3·inner − (inner − 1) − prefix``.
    """
    paths: Set[Tuple[int, ...]] = set()
    n_prefixes = 0
    for prefix in prefixes:
        n_prefixes += 1
        bits = prefix.bits()
        for depth in range(len(bits) + 1):
            paths.add(bits[:depth])
    inner = len(paths)
    if n_prefixes == 0:
        return NodeCensus(inner=0, prefix=0, bit=0, dummy=1)
    dummy = 3 * inner - (inner - 1) - n_prefixes
    return NodeCensus(inner=inner, prefix=n_prefixes,
                      bit=n_prefixes * classes_per_prefix, dummy=dummy)


def slot_identity_holds(census: NodeCensus) -> bool:
    """The structural invariant of the minimal MTT (§7.3 arithmetic):
    every inner-node child slot holds an inner, prefix, or dummy node."""
    if census.inner == 0:
        return census.prefix == 0
    return 3 * census.inner == \
        (census.inner - 1) + census.prefix + census.dummy
