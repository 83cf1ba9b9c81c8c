"""Shared-memory warm worker pool for MTT labeling (Section 7.1).

The paper labels each commitment's MTT on ``c`` commitment threads.  The
first real pool here (PR 1) pickled a per-subtree op list through a
fresh ``ProcessPoolExecutor`` every round, which made multiprocess
labeling a *regression*: per-round pool spawn plus IPC serialization
cost more than the hashing it parallelized (serial 0.46 s vs
0.97–1.23 s pooled, measured then).  This module replaces
that design with two ideas:

* **Flat shared buffers, zero per-round pickling.**  Three
  ``multiprocessing.shared_memory`` blocks:

  - the *program* block, written once per tree and edit version —
    the slot arrays :func:`_build_program` derives from the tree's
    :class:`~repro.mtt.tree.FlatSchedule` (op kinds, committed bits,
    CSR child indices) plus each slot's index into the randomness
    blob.  This module is the only one that knows the slot layout;
  - the *label* block, one
    :data:`~repro.crypto.hashing.DIGEST_SIZE`-byte slot per node,
    written in place by whoever executes the slot;
  - the *randomness* block, refreshed each round with ONE ``memcpy`` of
    the CSPRNG draw in plan order — no per-slot scatter, because any
    serial per-node Python loop in the parent would eat the workers'
    speedup.

  Each side compiles the program once into per-kind op streams
  (:class:`_FlatOps`) with every buffer slice precomputed, so the
  per-round loops carry no branching or index arithmetic.  Workers
  execute contiguous post-order slot ranges — dummy slots copy their
  draw from the randomness block (a single C-level ``map`` sweep), bit
  slots hash ``H(b || x)``, interior slots hash the concatenation of
  their children's label slots.  The only per-round IPC is a control
  message of a few ``(lo, hi)`` slot ranges per worker.

* **A warm pool.**  :class:`LabelPool` spawns its workers once — owned
  by the recorder for as long as the deployment lives
  (``SpiderConfig.commit_workers`` wide, shut down by
  ``Recorder.close()``) — so rounds pay dispatch, not ``fork``/``exec``.
  The installed program is current for one tree *at one edit
  version*: it bakes in the shape (slot layout) and the committed bits
  (per-slot hash prefixes), so relabeling an unedited tree skips
  straight to dispatch, while another tree, or the same tree after any
  :meth:`~repro.mtt.tree.Mtt.set_bits` / ``insert`` / ``remove``,
  re-installs (build, encode, and one compile of all n slots in every
  worker).  The recorder relabels one retained tree whose diff is
  rarely empty and the proof generator labels a tree of its own per
  rebuild of an older commitment, so the deployment path still
  installs on almost every round (DESIGN.md §2 has the last
  measurement of all three shapes).  Shipping bits per round beside the randomness
  blob, so that a bits-only round keeps its program, is the next step
  and is not taken here.

Failure model: a worker death (OOM kill, SIGKILL, crash) surfaces as
:class:`PoolBrokenError` on the next dispatch or reply.  The pool marks
itself broken and the caller (:func:`repro.mtt.labeling.
label_tree_parallel`) falls back to a serial relabel of the
already-blinded tree, so a commitment round never fails or produces a
partially labeled tree; the recorder respawns a fresh pool on the next
round.  A platform that cannot fork or map shared memory gets the same
treatment: the pool is born (or marks itself) broken and every round
takes that serial path.

Determinism: randomness is drawn serially by the caller in the fixed
CSPRNG order before any hashing, and every label is a pure function of
its subtree, so pool, serial, and fallback labeling are byte-identical
per node (property-tested in ``tests/mtt/test_label_pool.py``).
"""

from __future__ import annotations

import os
import time
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from multiprocessing.connection import Connection
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..crypto import hashing
from ..crypto.hashing import DIGEST_SIZE
from ..obs.registry import get_registry
from .nodes import InnerNode, MttNode, PrefixNode
from .tree import FlatSchedule, Mtt

#: Branch levels below the MTT root at which the tree is cut into
#: per-worker subtree jobs, and seconds to wait for a worker's reply
#: before declaring the pool broken.  One value each is in use; tests
#: vary them through the function/constructor parameters.
CUT_DEPTH = 4
POOL_TIMEOUT = 30.0

#: Slot kinds of the flat labeling program (one byte per node).  Dummy
#: slots carry pre-drawn random labels, bit slots hash ``H(b || x)``
#: over their blinding, interior slots hash the concatenation of their
#: children's label slots.
SLOT_DUMMY, SLOT_BIT, SLOT_INTERIOR = 0, 1, 2

#: Magic + version prefixing the static program block, so a worker that
#: attaches to a stale or foreign segment fails loudly.
_PROG_MAGIC = b"SPDRPOOL"
_PROG_VERSION = 2
_HEADER = 16  # magic (8) + version (4) + n_slots (4)


class PoolBrokenError(RuntimeError):
    """A pool worker died or stopped responding; the pool is unusable.

    Callers must fall back to serial labeling (the tree's randomness is
    already assigned, so a serial relabel is always possible) and
    discard the pool; the owning recorder spawns a fresh one lazily.
    """


def subtree_jobs(tree: Mtt, cut_depth: int) -> List[MttNode]:
    """Subtree roots ``cut_depth`` branch levels below the MTT root.

    More depth yields more, smaller jobs and therefore a better balanced
    schedule (the paper splits 'the MTT into subtrees that are each
    labeled completely by one of the threads', §7.1).
    """
    jobs: List[MttNode] = []
    frontier: List[Tuple[MttNode, int]] = [(tree.root, 0)]
    while frontier:
        node, depth = frontier.pop()
        if depth >= cut_depth or not isinstance(node, InnerNode):
            jobs.append(node)
            continue
        frontier.extend((c, depth + 1) for c in node.children
                        if c is not None)
    return jobs


# ----------------------------------------------------------------------
# The flat hash program executor (runs in the workers and in the
# parent's upper-remainder merge — one code path, two call sites).


def _bit_prefixes(slot_kinds: Iterable[int],
                  slot_bits: Iterable[int]) -> List[bytes]:
    """Per-slot ``b"\\x00"``/``b"\\x01"`` hash prefixes for bit slots."""
    one, zero = b"\x01", b"\x00"
    return [one if (kind == SLOT_BIT and bit) else zero
            for kind, bit in zip(slot_kinds, slot_bits)]


class _FlatOps:
    """Precompiled per-kind op streams over a set of slots.

    Compiled once per installed shape: every label/randomness buffer
    slice becomes a stored ``slice`` object, so the per-round loops do
    no branching and no index arithmetic.  Order within a contiguous
    post-order range only matters for interior slots (children first);
    the streams keep ascending slot order, so running dummies, then
    bits, then interiors is equivalent to slot order.
    """

    __slots__ = ("bit_slots", "bit_ls", "bit_pref", "bit_rs",
                 "dum_slots", "dum_ls", "dum_rs",
                 "int_slots", "int_ls", "int_ch")

    bit_slots: List[int]
    bit_ls: List[slice]
    bit_pref: List[bytes]
    bit_rs: List[slice]
    dum_slots: List[int]
    dum_ls: List[slice]
    dum_rs: List[slice]
    int_slots: List[int]
    int_ls: List[slice]
    int_ch: List[Tuple[slice, ...]]

    def __init__(self, slots: Iterable[int], kinds: Sequence[int],
                 prefixes: Sequence[bytes], offsets: Sequence[int],
                 children: Sequence[int],
                 rand_index: Sequence[int]):
        size = DIGEST_SIZE
        self.bit_slots = []
        self.bit_ls = []
        self.bit_pref = []
        self.bit_rs = []
        self.dum_slots = []
        self.dum_ls = []
        self.dum_rs = []
        self.int_slots = []
        self.int_ls = []
        self.int_ch = []
        for s in slots:
            kind = kinds[s]
            p = s * size
            ls = slice(p, p + size)
            if kind == SLOT_BIT:
                r = rand_index[s] * size
                self.bit_slots.append(s)
                self.bit_ls.append(ls)
                self.bit_pref.append(prefixes[s])
                self.bit_rs.append(slice(r, r + size))
            elif kind == SLOT_INTERIOR:
                self.int_slots.append(s)
                self.int_ls.append(ls)
                self.int_ch.append(tuple(
                    slice(c * size, c * size + size)
                    for c in children[offsets[s]:offsets[s + 1]]))
            else:  # dummy
                r = rand_index[s] * size
                self.dum_slots.append(s)
                self.dum_ls.append(ls)
                self.dum_rs.append(slice(r, r + size))

    def execute_all(self, rand: bytes, labels: memoryview) -> None:
        _run_streams(self.dum_ls, self.dum_rs,
                     self.bit_ls, self.bit_pref, self.bit_rs,
                     self.int_ls, self.int_ch, rand, labels)

    def execute_range(self, lo: int, hi: int, rand: bytes,
                      labels: memoryview) -> None:
        """Execute the ops whose slot lies in ``[lo, hi)``."""
        b0 = bisect_left(self.bit_slots, lo)
        b1 = bisect_left(self.bit_slots, hi)
        d0 = bisect_left(self.dum_slots, lo)
        d1 = bisect_left(self.dum_slots, hi)
        i0 = bisect_left(self.int_slots, lo)
        i1 = bisect_left(self.int_slots, hi)
        _run_streams(self.dum_ls[d0:d1], self.dum_rs[d0:d1],
                     self.bit_ls[b0:b1], self.bit_pref[b0:b1],
                     self.bit_rs[b0:b1],
                     self.int_ls[i0:i1], self.int_ch[i0:i1],
                     rand, labels)


def _run_streams(dum_ls: Sequence[slice], dum_rs: Sequence[slice],
                 bit_ls: Sequence[slice], bit_pref: Sequence[bytes],
                 bit_rs: Sequence[slice],
                 int_ls: Sequence[slice],
                 int_ch: Sequence[Tuple[slice, ...]],
                 rand: bytes, labels: memoryview) -> None:
    sha = hashing.merkle_sha512
    join = b"".join
    size = DIGEST_SIZE
    # Dummies: one C-level gather/scatter sweep, no interpreter loop.
    deque(map(labels.__setitem__, dum_ls,
              map(rand.__getitem__, dum_rs)), maxlen=0)
    for ls, pref, rs in zip(bit_ls, bit_pref, bit_rs):
        labels[ls] = sha(pref + rand[rs]).digest()[:size]
    for ls, chs in zip(int_ls, int_ch):
        labels[ls] = sha(join([labels[c] for c in chs])).digest()[:size]


@dataclass(frozen=True)
class _Program:
    """One installed tree: slot ranges over the shared buffers."""

    schedule: FlatSchedule  # strong ref: identity key for the cache
    version: int  # the tree's edit version the bits were read at
    cut_depth: int
    n_slots: int
    n_rand: int  # randomness draws per round (plan length)
    #: Contiguous ``[lo, hi)`` slot ranges, one per cut subtree.
    job_ranges: Tuple[Tuple[int, int], ...]
    #: Hash ops (bit + interior slots) per job range, for balancing.
    job_costs: Tuple[int, ...]
    #: Compiled ops for the remainder above the cut (parent-side merge).
    upper_ops: _FlatOps
    #: Non-dummy nodes in slot order and their label-buffer slices
    #: (dummies keep the label ``assign_randomness`` put on them, so
    #: copy-back skips them).
    out_nodes: Tuple[MttNode, ...]
    out_slices: Tuple[slice, ...]


def _build_program(tree: Mtt, cut_depth: int) -> Tuple[_Program, bytes]:
    """Derive the slot program of ``tree``; returns it with the encoded
    program block the workers parse.

    Every node gets a slot id in a post-order: interiors in the
    schedule's order, each leaf child right before the first interior
    that completes after it.  A node's whole subtree completes before
    the node itself, so each subtree is one contiguous slot block
    (``sizes`` gives its length) and a worker can be handed a
    ``(lo, hi)`` range instead of a pickled subtree; the root is last.
    """
    schedule = tree.schedule()
    slot_of: Dict[int, int] = {}
    nodes: List[MttNode] = []
    kinds = bytearray()
    bits = bytearray()
    # CSR: the children of slot s are children[offsets[s]:offsets[s+1]].
    offsets = array("I", (0,))
    children = array("I")
    sizes = array("I")

    def add_slot(node: MttNode, kind: int, bit: int, size: int) -> None:
        slot_of[id(node)] = len(nodes)
        nodes.append(node)
        kinds.append(kind)
        bits.append(bit)
        offsets.append(len(children))
        sizes.append(size)

    for node, kids in zip(*schedule.interiors):
        # Leaves first: a slot's CSR range starts where the previous
        # slot's ended, so no slot may open inside this node's range.
        # A bit slot takes its bit from its prefix node.
        if type(node) is PrefixNode:
            for kid, bit in zip(kids, node.bits):
                add_slot(kid, SLOT_BIT, bit, 1)
        else:
            for kid in kids:
                if id(kid) not in slot_of:
                    add_slot(kid, SLOT_DUMMY, 0, 1)
        size = 1
        for kid in kids:
            kid_slot = slot_of[id(kid)]
            children.append(kid_slot)
            size += sizes[kid_slot]
        add_slot(node, SLOT_INTERIOR, 0, size)
    if not nodes:  # the empty tree: a lone dummy root
        add_slot(tree.root, SLOT_DUMMY, 0, 1)
    n_slots = len(nodes)

    covered = bytearray(n_slots)
    ranges: List[Tuple[int, int]] = []
    costs: List[int] = []
    for job in subtree_jobs(tree, cut_depth):
        hi = slot_of[id(job)] + 1
        lo = hi - sizes[hi - 1]
        # Pure-dummy jobs still dispatch: their slots must be
        # materialized from the randomness blob by *someone*, and a
        # worker copying them is free compared to the parent doing it.
        ranges.append((lo, hi))
        costs.append(sum(1 for s in range(lo, hi)
                         if kinds[s] != SLOT_DUMMY))
        covered[lo:hi] = b"\x01" * (hi - lo)
    upper = [s for s in range(n_slots) if not covered[s]]
    # Per-slot index into the randomness blob (meaningful for dummy
    # and bit slots; 0 elsewhere).
    rand_index = array("I", bytes(4 * n_slots))
    rand_nodes = schedule.rand_plan[0]
    for i, node in enumerate(rand_nodes):
        rand_index[slot_of[id(node)]] = i
    upper_ops = _FlatOps(upper, kinds, _bit_prefixes(kinds, bits),
                         offsets, children, rand_index)
    out = [(node, slice(s * DIGEST_SIZE, (s + 1) * DIGEST_SIZE))
           for s, node in enumerate(nodes) if kinds[s] != SLOT_DUMMY]
    blob = b"".join([_PROG_MAGIC,
                     _PROG_VERSION.to_bytes(4, "little"),
                     n_slots.to_bytes(4, "little"),
                     kinds, bits, offsets.tobytes(), children.tobytes(),
                     rand_index.tobytes()])
    program = _Program(schedule=schedule, version=tree.version,
                       cut_depth=cut_depth,
                       n_slots=n_slots, n_rand=len(rand_nodes),
                       job_ranges=tuple(ranges), job_costs=tuple(costs),
                       upper_ops=upper_ops,
                       out_nodes=tuple(node for node, _ in out),
                       out_slices=tuple(sl for _, sl in out))
    return program, blob


# ----------------------------------------------------------------------
# Worker process side


class _WorkerState:
    """A worker's parsed view of the installed shared-memory program."""

    __slots__ = ("prog_shm", "label_shm", "rand_shm", "ops",
                 "rand_bytes", "labels")

    def __init__(self, prog_name: str, label_name: str,
                 rand_name: str):
        from multiprocessing import shared_memory
        self.prog_shm = shared_memory.SharedMemory(name=prog_name)
        self.label_shm = shared_memory.SharedMemory(name=label_name)
        self.rand_shm = shared_memory.SharedMemory(name=rand_name)
        buf = self.prog_shm.buf
        if bytes(buf[0:8]) != _PROG_MAGIC:
            raise RuntimeError("bad label-program magic")
        version = int.from_bytes(buf[8:12], "little")
        if version != _PROG_VERSION:
            raise RuntimeError(f"label-program version {version} != "
                               f"{_PROG_VERSION}")
        n_slots = int.from_bytes(buf[12:16], "little")
        pos = _HEADER
        kinds = bytes(buf[pos:pos + n_slots])
        pos += n_slots
        bits = bytes(buf[pos:pos + n_slots])
        pos += n_slots
        offsets = array("I")
        offsets.frombytes(bytes(buf[pos:pos + 4 * (n_slots + 1)]))
        pos += 4 * (n_slots + 1)
        n_children = offsets[n_slots] if n_slots else 0
        children = array("I")
        children.frombytes(bytes(buf[pos:pos + 4 * n_children]))
        pos += 4 * n_children
        rand_index = array("I")
        rand_index.frombytes(bytes(buf[pos:pos + 4 * n_slots]))
        # Compiled once per installed shape; every subsequent round is
        # a pure loop over precomputed slices plus the shared buffers.
        self.ops = _FlatOps(range(n_slots), kinds,
                            _bit_prefixes(kinds, bits),
                            offsets.tolist(), children.tolist(),
                            rand_index)
        self.rand_bytes = (len(self.ops.bit_slots) +
                           len(self.ops.dum_slots)) * DIGEST_SIZE
        self.labels = self.label_shm.buf

    def execute(self, ranges: Sequence[Tuple[int, int]]) -> None:
        # Snapshot the round's randomness once (bit hashing one-shots
        # ``sha(prefix + rand[rs])``, which needs a bytes operand).
        rand = bytes(self.rand_shm.buf[:self.rand_bytes])
        for lo, hi in ranges:
            self.ops.execute_range(lo, hi, rand, self.labels)

    def close(self) -> None:
        self.labels = memoryview(b"")
        self.prog_shm.close()
        self.label_shm.close()
        self.rand_shm.close()


def _worker_main(conn: Connection) -> None:
    """Pool worker loop: block on control messages, hash slot ranges.

    Runs until a ``stop`` message or parent EOF.  The ``die`` message is
    a test hook simulating a crashed worker (OOM kill / SIGKILL) without
    racing the dispatcher.
    """
    # The parent owns (and unlinks) every segment this worker attaches.
    # Python 3.11 has no opt-out on attach, so neuter shared-memory
    # registration here: with a worker-local tracker it would report
    # spurious "leaked shared_memory" warnings on exit, and with a
    # tracker inherited from the parent an unregister workaround would
    # corrupt the parent's bookkeeping instead.
    from multiprocessing import resource_tracker
    original_register = resource_tracker.register

    def register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original_register(name, rtype)

    resource_tracker.register = register
    state: Optional[_WorkerState] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        command = message[0]
        try:
            if command == "install":
                if state is not None:
                    state.close()
                state = _WorkerState(message[1], message[2], message[3])
                conn.send(("ok",))
            elif command == "run":
                if state is None:
                    raise RuntimeError("run before install")
                state.execute(message[1])
                conn.send(("ok",))
            elif command == "die":  # test hook: simulated worker crash
                os._exit(17)
            elif command == "stop":
                conn.send(("ok",))
                break
            else:
                raise RuntimeError(f"unknown pool command {command!r}")
        except Exception as exc:  # surface, don't kill the worker
            try:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break
    if state is not None:
        state.close()


# ----------------------------------------------------------------------
# Parent side


@dataclass(frozen=True)
class RoundResult:
    """Timing/accounting of one warm-pool labeling round."""

    root_label: bytes
    jobs: int
    dispatches: int
    install_seconds: float  # 0.0 when this tree was already installed


class LabelPool:
    """A persistent pool of labeling workers over shared label buffers.

    Create once (``SpiderConfig.commit_workers`` wide), call
    :meth:`label` once per commitment round, :meth:`close` on recorder
    shutdown.  The pool spawns processes eagerly so the one-time cost is
    attributable (``spinup_seconds``); per-round dispatch is a few bytes
    of control messages per worker.
    """

    def __init__(self, workers: int, timeout: float = POOL_TIMEOUT):
        if workers < 1:
            raise ValueError("need at least one worker")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.workers = workers
        self.timeout = timeout
        self.broken = False
        self._procs: List[Any] = []
        self._conns: List[Connection] = []
        self._program: Optional[_Program] = None
        self._prog_shm: Optional[Any] = None
        self._label_shm: Optional[Any] = None
        self._rand_shm: Optional[Any] = None
        self._closed = False
        self._obs = get_registry()
        start = time.perf_counter()
        try:
            self._spawn()
        except (OSError, ImportError, ValueError):
            # Sandboxed or exotic platform without fork/pipes/shared
            # memory: the pool is born broken, so every round takes the
            # PoolBrokenError → serial recovery path.
            self._mark_broken("cannot spawn pool workers")
        self.spinup_seconds = time.perf_counter() - start
        self._obs.counter("mtt_pool_spinups_total").inc()
        self._obs.histogram("mtt_pool_spinup_seconds").observe(
            self.spinup_seconds)

    # -- lifecycle -----------------------------------------------------

    def _spawn(self) -> None:
        import multiprocessing
        from multiprocessing import shared_memory  # noqa: F401
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork
            context = multiprocessing.get_context()  # type: ignore[assignment]
        for _ in range(self.workers):
            parent_end, child_end = context.Pipe()
            proc = context.Process(target=_worker_main,
                                   args=(child_end,), daemon=True)
            proc.start()
            child_end.close()
            self._procs.append(proc)
            self._conns.append(parent_end)

    def worker_pids(self) -> List[int]:
        """PIDs of the worker processes."""
        return [proc.pid for proc in self._procs
                if proc.pid is not None]

    def close(self) -> None:
        """Shut the pool down; idempotent, safe on a broken pool."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(1.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._release_shm()

    def _release_shm(self) -> None:
        for shm in (self._prog_shm, self._label_shm, self._rand_shm):
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
        self._prog_shm = None
        self._label_shm = None
        self._rand_shm = None
        self._program = None

    def _mark_broken(self, reason: str) -> PoolBrokenError:
        self.broken = True
        self._obs.counter("mtt_pool_failures_total",
                          mode="process").inc()
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        return PoolBrokenError(reason)

    # -- program install -----------------------------------------------

    def _ensure_program(self, tree: Mtt, cut_depth: int) -> float:
        """Install the tree's flat hash program; returns install time.

        Keyed by schedule identity, the tree's edit version and the
        cut depth: relabeling an unedited tree skips straight to
        dispatch; a new tree pays the install, and so does an edited
        one — the program holds the bits as hash prefixes, so after a
        bits-only edit (same schedule object) the old program would
        hash the *previous* bits and commit to a stale root.
        """
        schedule = tree.schedule()
        program = self._program
        if program is not None and program.schedule is schedule and \
                program.version == tree.version and \
                program.cut_depth == cut_depth:
            return 0.0
        from multiprocessing import shared_memory
        start = time.perf_counter()
        program, prog_blob = _build_program(tree, cut_depth)
        self._release_shm()
        try:
            self._prog_shm = shared_memory.SharedMemory(
                create=True, size=len(prog_blob))
            self._label_shm = shared_memory.SharedMemory(
                create=True, size=program.n_slots * DIGEST_SIZE)
            self._rand_shm = shared_memory.SharedMemory(
                create=True, size=program.n_rand * DIGEST_SIZE)
        except OSError:
            raise self._mark_broken("cannot map shared memory") from None
        self._prog_shm.buf[:len(prog_blob)] = prog_blob
        self._roundtrip([("install", self._prog_shm.name,
                          self._label_shm.name, self._rand_shm.name)]
                        * len(self._conns))
        self._program = program
        seconds = time.perf_counter() - start
        self._obs.counter("mtt_pool_installs_total").inc()
        return seconds

    # -- dispatch ------------------------------------------------------

    def _roundtrip(self, messages: Sequence[Tuple[Any, ...]]) -> None:
        """Send one message per worker and collect every reply."""
        engaged: List[Connection] = []
        for conn, message in zip(self._conns, messages):
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                raise self._mark_broken("pool worker pipe closed") \
                    from None
            engaged.append(conn)
        for conn in engaged:
            try:
                if not conn.poll(self.timeout):
                    raise self._mark_broken(
                        f"pool worker unresponsive after "
                        f"{self.timeout}s")
                reply = conn.recv()
            except (EOFError, OSError):
                raise self._mark_broken("pool worker died") from None
            if reply[0] != "ok":
                raise self._mark_broken(f"pool worker error: {reply[1]}")

    def _assignments(self, program: _Program
                     ) -> List[List[Tuple[int, int]]]:
        """Greedy longest-first packing of job ranges onto workers."""
        bins: List[List[Tuple[int, int]]] = [[] for _ in
                                             range(self.workers)]
        loads = [0] * self.workers
        order = sorted(range(len(program.job_ranges)),
                       key=lambda i: program.job_costs[i], reverse=True)
        for i in order:
            target = loads.index(min(loads))
            bins[target].append(program.job_ranges[i])
            loads[target] += program.job_costs[i]
        busiest = max(loads) if loads else 0
        if busiest:
            self._obs.gauge("mtt_pool_occupancy").set(
                sum(loads) / (self.workers * busiest))
        return bins

    # -- the per-round entry point -------------------------------------

    def label(self, tree: Mtt, rand_values: Sequence[bytes],
              cut_depth: int = CUT_DEPTH,
              materialize: bool = True) -> RoundResult:
        """Hash one already-blinded tree on the warm pool.

        ``rand_values`` are the bitstrings the caller drew and assigned
        to the tree's nodes (serially, in CSPRNG order — what
        :func:`repro.mtt.labeling.assign_randomness` returns).  On
        return every node carries its label, exactly as serial labeling
        would have left it — unless ``materialize`` is False, which
        skips the copy-back and yields only the root (for a caller
        that reads nothing else off the tree; the recorder does not,
        since the latest commitment is proved from its tree).
        Raises :class:`PoolBrokenError` if a worker died; the
        tree's randomness is untouched, so a serial relabel remains
        valid.
        """
        if self._closed:
            raise PoolBrokenError("pool is closed")
        if self.broken:
            raise PoolBrokenError("pool is broken")
        install_seconds = self._ensure_program(tree, cut_depth)
        program = self._program
        assert program is not None
        assert self._rand_shm is not None and self._label_shm is not None
        # The round's entire randomness traffic: one join + one memcpy.
        rand_blob = b"".join(rand_values)
        self._rand_shm.buf[:len(rand_blob)] = rand_blob
        engaged = [("run", ranges)
                   for ranges in self._assignments(program) if ranges]
        self._roundtrip(engaged)
        # Merge: the (small) remainder above the cut, executed
        # in-process — including any dummies no job range covered.
        labels = memoryview(self._label_shm.buf)
        program.upper_ops.execute_all(rand_blob, labels)
        size = DIGEST_SIZE
        if materialize:
            # One bulk copy of the shared buffer, then a C-level slice
            # gather and ``setattr`` sweep over the non-dummy nodes.
            # This pass is serial and bounds the pool's speedup — hence
            # no per-node interpreted loop.
            blob = bytes(labels[:program.n_slots * size])
            deque(map(setattr, program.out_nodes, repeat("label"),
                      map(blob.__getitem__, program.out_slices)),
                  maxlen=0)
            root_label = blob[len(blob) - size:]
        else:
            root_label = bytes(labels[(program.n_slots - 1) * size:
                                      program.n_slots * size])
        self._obs.counter("mtt_pool_dispatches_total").inc(
            max(len(engaged), 1))
        return RoundResult(root_label=root_label,
                           jobs=len(program.job_ranges),
                           dispatches=len(engaged),
                           install_seconds=install_seconds)
