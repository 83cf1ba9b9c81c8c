"""Merkle labeling of MTTs (Section 5.3).

Labels: each dummy node gets a random bitstring; each bit node gets
``H(b_i || x_i)`` with a fresh blinding ``x_i``; each interior node (prefix
or inner) gets the hash of the concatenation of its children's labels.
All random bitstrings come from the seeded CSPRNG so that the proof
generator can reconstruct a past MTT from the stored 32-byte seed
(Section 6.5).

Randomness is assigned in one deterministic depth-first pass *before* any
hashing, so the hashing can be partitioned into independent subtrees.
There are exactly two implementations of the hashing, each built for
the caller that uses it:

* the **serial kernel** — :func:`assign_randomness` plus
  :func:`_hash_pass` over the tree's :class:`~repro.mtt.tree.FlatSchedule`,
  behind :func:`label_tree`.  The recorder relabels the one tree it
  keeps — new randomness every round (§5), the schedule reused while
  the prefix set holds — and the proof generator labels a tree of its
  own per reconstruction, once; this path carries nothing a single
  round does not use.
* the **process pool** — the paper's ``c`` commitment threads (§7.1),
  reached through :func:`label_tree_parallel` with a caller-owned
  :class:`~repro.mtt.pool.LabelPool`: worker processes execute a flat
  slot program over ``multiprocessing.shared_memory`` (see
  :mod:`repro.mtt.pool` for the layout and failure model).  No function
  here spawns a pool on the caller's behalf; without one, and whenever
  the pool breaks, the round is labeled by the serial kernel.

Every label is a pure function of its subtree and the serially drawn
randomness, so serial, pool, and fallback labeling produce byte-identical
labels on every node from the same seed (property-tested), and
:func:`compute_label` stays as the per-node reference both are pinned to.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..crypto.hashing import DIGEST_SIZE, bit_commitment, digest_concat
from ..crypto.rc4 import Rc4Csprng
from ..obs.registry import get_registry
from .nodes import BitNode, DummyNode, MttNode, PrefixNode
from .pool import CUT_DEPTH, LabelPool, PoolBrokenError
from .tree import Mtt


def _observe_labeling(mode: str, seconds: float, hashes: int,
                      jobs: int, workers: int) -> None:
    """Publish one labeling run to the instrumentation registry.

    Feeds the Section 7.5 cost attribution: ``mtt_label_seconds`` is the
    wall-clock of the hash phase (bucketed by mode), and the pool
    gauges record how the work was spread over the paper's ``c``
    commitment workers.
    """
    registry = get_registry()
    registry.counter("mtt_labelings_total", mode=mode).inc()
    registry.counter("mtt_hashes_total").inc(hashes)
    registry.histogram("mtt_label_seconds", mode=mode).observe(seconds)
    registry.gauge("mtt_pool_workers").set(workers)
    registry.gauge("mtt_pool_jobs").set(jobs)


def assign_randomness(tree: Mtt, csprng: Rc4Csprng) -> List[bytes]:
    """Give every bit node a blinding and every dummy node its label.

    Draws one bitstring per dummy/bit node in the schedule's fixed DFS
    order (one CSPRNG draw for the whole tree).  Labels of bit
    and interior nodes are left as they are: every labeling below
    overwrites them unconditionally.  Returns the drawn bitstrings in
    plan order so the pool can copy them into shared memory without
    re-reading the node attributes.
    """
    nodes, attributes = tree.schedule().rand_plan
    strings = csprng.bitstrings(len(nodes))
    deque(map(setattr, nodes, attributes, strings), maxlen=0)
    return strings


def compute_label(node: MttNode) -> bytes:
    """Compute the Merkle label of a subtree, node by node.

    :spiderlint-contract: declassifier(merkle-label)

    Labels are hiding (§5.3): a label reveals neither the bit nor the
    blinding beneath it, so spiderlint treats this construction as a
    sanctioned declassifier for taint that flows into it.

    The reference implementation: a generic iterative post-order
    traversal straight off the §5.3 definition, which the golden-root
    tests pin the serial kernel and the pool to.  Whole-tree labeling
    goes through :func:`label_tree`.
    """
    stack: List[Tuple[MttNode, bool]] = [(node, False)]
    while stack:
        current, expanded = stack.pop()
        kind = type(current)
        if kind is DummyNode:
            if current.label is None:
                raise RuntimeError("dummy node has no label; call "
                                   "assign_randomness first")
            continue
        if kind is BitNode:
            if current.blinding is None:
                raise RuntimeError("bit node has no blinding; call "
                                   "assign_randomness first")
            current.label = bit_commitment(current.bit, current.blinding)
            continue
        if kind is PrefixNode:
            children: List[MttNode] = list(current.bit_nodes)
        else:
            children = [c for c in current.children if c is not None]
        if expanded:
            current.label = digest_concat(
                *[child.label for child in children])
            continue
        stack.append((current, True))
        stack.extend((child, False) for child in children)
    return node.label


def _hash_pass(tree: Mtt) -> bytes:
    """Label every node of an already-blinded tree via the flat schedule.

    Inlines H (SHA-512 truncated to :data:`DIGEST_SIZE`, identical to
    :func:`repro.crypto.hashing.digest`) so each node costs one hash
    call; the golden-root tests pin this path to the generic
    :func:`compute_label` traversal byte for byte.  This is also the
    recovery path when a worker pool breaks mid-round: the tree's
    randomness is already in place, so one serial pass always restores
    a fully labeled tree.
    """
    schedule = tree.schedule()
    sha = hashlib.sha512
    size = DIGEST_SIZE
    one, zero = b"\x01", b"\x00"
    for node in schedule.bit_nodes:
        node.label = sha((one if node.bit else zero)
                         + node.blinding).digest()[:size]
    join = b"".join
    for node, children in zip(*schedule.interiors):
        node.label = sha(join([c.label for c in children])).digest()[:size]
    return tree.root.label


@dataclass(frozen=True)
class LabelingReport:
    """Result of one labeling round, serial or pooled.

    ``seconds`` is the hash phase only.  On the pool, installing the
    tree's program into shared memory is reported separately as
    ``spinup_seconds`` so warm rounds stay comparable to the serial
    path; the pool's own spawn cost is ``LabelPool.spinup_seconds``.
    """

    root_label: bytes
    seconds: float
    hash_count: int
    workers: int = 1
    mode: str = "serial"  # "serial" | "process" | "serial-fallback"
    jobs: int = 1
    spinup_seconds: float = 0.0


def _hash_count(tree: Mtt) -> int:
    """One hash per bit node and per interior node (dummies are free)."""
    census = tree.census()
    return census.bit + census.prefix + census.inner


def _serial_round(tree: Mtt, mode: str, workers: int) -> LabelingReport:
    """Time one :func:`_hash_pass` over an already-blinded tree."""
    start = time.perf_counter()
    root_label = _hash_pass(tree)
    seconds = time.perf_counter() - start
    hashes = _hash_count(tree)
    _observe_labeling(mode, seconds, hashes, jobs=1, workers=workers)
    return LabelingReport(root_label=root_label, seconds=seconds,
                          hash_count=hashes, workers=workers, mode=mode)


def label_tree(tree: Mtt, csprng: Rc4Csprng) -> LabelingReport:
    """Assign randomness and label the whole tree, timing the hash work."""
    assign_randomness(tree, csprng)
    return _serial_round(tree, "serial", workers=1)


def label_tree_parallel(tree: Mtt, csprng: Rc4Csprng, workers: int = 1,
                        cut_depth: int = CUT_DEPTH,
                        pool: Optional[LabelPool] = None,
                        materialize: bool = True) -> LabelingReport:
    """Assign randomness serially, then label subtrees on ``pool``.

    The tree is partitioned into independent subtrees ``cut_depth``
    branch levels below the root; each worker labels whole subtrees in
    shared memory and the (small) remainder above the cut is merged
    in-process, exactly as the paper splits "the MTT into subtrees that
    are each labeled completely by one of the threads" (§7.1).  Labels
    land on the same node objects serial labeling would have written, so
    proof generation is oblivious to how the tree was labeled.  Set
    ``materialize=False`` when only the root is consumed (the recorder
    takes the root and relabels its tree next round; proofs come from
    the proof generator's own tree): the per-node copy-back is skipped.

    The pool is the caller's (the recorder owns one,
    ``SpiderConfig.commit_workers`` wide); ``workers`` is that width as
    the report and the gauges show it.  Without a pool the round is
    :func:`label_tree`.  If the pool is broken or breaks mid-round
    (worker OOM-killed, crashed, unresponsive, or a platform that cannot
    fork or map shared memory) the round falls back to the serial
    kernel — the randomness was assigned up front and is never touched
    by workers, so the fallback yields byte-identical labels (mode
    ``"serial-fallback"``); the caller should discard the broken pool.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if pool is None:
        return label_tree(tree, csprng)
    rand_values = assign_randomness(tree, csprng)
    try:
        start = time.perf_counter()
        result = pool.label(tree, rand_values, cut_depth=cut_depth,
                            materialize=materialize)
        elapsed = time.perf_counter() - start
    except PoolBrokenError:
        get_registry().counter("mtt_pool_failures_total",
                               mode="fallback").inc()
        return _serial_round(tree, "serial-fallback", workers)
    seconds = max(0.0, elapsed - result.install_seconds)
    hashes = _hash_count(tree)
    _observe_labeling("process", seconds, hashes, jobs=result.jobs,
                      workers=workers)
    return LabelingReport(
        root_label=result.root_label, seconds=seconds, hash_count=hashes,
        workers=workers, mode="process", jobs=result.jobs,
        spinup_seconds=result.install_seconds)
