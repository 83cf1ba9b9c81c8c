"""The canonical two-node SPIDeR exchange, transport-agnostic.

One scripted announce → ack → commitment round between AS 11 ("A") and
AS 12 ("B").  Every timestamp is fixed by the script, not by the
transport, so the resulting evidence logs are a pure function of the
protocol — running the same script over :class:`LoopbackTransport` in
one process or over real TCP between two OS processes must produce
byte-identical logs (:mod:`repro.spider.log` defines the bytes).

The module doubles as the two-process demo: ``python -m
repro.runtime.scenario --role a --port 9401 --peer-port 9402`` in one
terminal and ``--role b --port 9402 --peer-port 9401`` in another runs
the exchange over localhost TCP and prints each side's log digest.
Adding ``--store-dir DIR`` puts side A's evidence log on disk
(:mod:`repro.store`), and ``--store-smoke DIR`` runs the kill/restart
acceptance scenario end to end: a child process executes the first
half of the exchange under ``fsync=always`` and SIGKILLs itself, then
this process recovers from the segments and finishes the script —
asserting the recovered and resumed logs are byte-identical to an
uninterrupted reference run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from typing import Dict, Optional, Sequence, Tuple

from ..bgp.prefix import Prefix
from ..bgp.route import Route
from ..crypto.keys import KeyRegistry, make_identity
from ..spider.config import SpiderConfig
from ..spider.log import encode_log, log_digest
from ..spider.node import evaluation_scheme
from .delivery import RetryPolicy
from .node_runtime import NodeRuntime
from .tcp import TcpTransport
from .transport import LoopbackHub, Transport

ASN_A = 11
ASN_B = 12
KEY_SEED = 7100
PREFIX = Prefix.parse("203.0.113.0/24")
ROUTE = Route(prefix=PREFIX, as_path=(ASN_A, 4000), neighbor=4000)

#: Script timeline (seconds on the stepped clock, millisecond grid).
T_ANNOUNCE = 1.0
T_ACK_SEEN = 1.5
T_COMMIT = 60.0
T_COMMIT_SEEN = 60.5
#: Second commitment round of the durable-store script — after the
#: kill/restart, the recovered node commits again here.
T_RESUME_COMMIT = 120.0

#: First retry only after 2 s: the scripted ACK (processed at t=1.5)
#: always wins the race, so the clean exchange never retransmits.
EXCHANGE_RETRY = RetryPolicy(initial=2.0, factor=2.0, max_delay=8.0,
                             jitter=0.1, max_attempts=4)

EXCHANGE_CONFIG = SpiderConfig(commit_interval=60.0, nagle_delay=0.0,
                               ack_timeout=10.0)


def exchange_runtime(asn: int, transport: Transport,
                     config: SpiderConfig = EXCHANGE_CONFIG,
                     retry_policy: RetryPolicy = EXCHANGE_RETRY,
                     store_dir: Optional[str] = None,
                     store_fsync: str = "always") -> NodeRuntime:
    """A runtime for one side, with both identities pre-registered.

    Key generation is seeded, so two separate processes derive the same
    registry without exchanging keys (the paper's Assumption 5: keys are
    known to everyone).  With ``store_dir``, the evidence log lives on
    disk and any existing segments are recovered before the first
    message is processed.
    """
    registry = KeyRegistry()
    identities = {
        a: make_identity(a, registry=registry, bits=512,
                         seed=KEY_SEED + a)
        for a in (ASN_A, ASN_B)
    }
    peer = ASN_B if asn == ASN_A else ASN_A
    return NodeRuntime(identity=identities[asn], registry=registry,
                       scheme=evaluation_scheme(10), transport=transport,
                       neighbors=(peer,), config=config,
                       retry_policy=retry_policy, retry_seed=asn,
                       store_dir=store_dir, store_fsync=store_fsync)


def run_side_a(rt: NodeRuntime,
               pump: Optional[callable] = None) -> None:
    """A's half of the script; ``pump`` drains a loopback hub (no-op
    over TCP, where the OS delivers asynchronously)."""
    pump = pump or (lambda: None)
    rt.advance_to(T_ANNOUNCE)
    rt.announce(ASN_B, ROUTE)
    pump()
    rt.wait_for_inbox(1)                 # B's ACK
    rt.advance_to(T_ACK_SEEN)
    # Exactly one message per step: over TCP the peer's commitment can
    # already be queued behind the ACK (its stepped clock jumps to
    # T_COMMIT with no wall-time gap), and draining it here would log
    # it at the wrong scripted time.
    rt.deliver_pending(limit=1)
    rt.advance_to(T_COMMIT)
    rt.commit()
    pump()
    rt.wait_for_inbox(1)                 # B's commitment
    rt.advance_to(T_COMMIT_SEEN)
    rt.deliver_pending(limit=1)


def run_side_b(rt: NodeRuntime,
               pump: Optional[callable] = None) -> None:
    pump = pump or (lambda: None)
    rt.wait_for_inbox(1)                 # A's announcement
    rt.advance_to(T_ANNOUNCE)
    rt.deliver_pending(limit=1)          # logs it, sends the ACK
    pump()
    rt.advance_to(T_COMMIT)
    rt.commit()
    pump()
    rt.wait_for_inbox(1)                 # A's commitment
    rt.advance_to(T_COMMIT_SEEN)
    rt.deliver_pending(limit=1)


def side_summary(rt: NodeRuntime) -> Dict[str, object]:
    """What each side reports for comparison across transports."""
    rt.recorder.log.verify_chain()
    peer = ASN_B if rt.asn == ASN_A else ASN_A
    peer_commit = rt.node.commitment_from(peer, T_COMMIT)
    return {
        "asn": rt.asn,
        "log_hex": encode_log(rt.recorder.log).hex(),
        "log_digest": log_digest(rt.recorder.log),
        "entries": len(rt.recorder.log),
        "own_root": rt.recorder.commitments[-1].root.hex(),
        "peer_root": peer_commit.root.hex() if peer_commit else None,
        "alarms": list(rt.recorder.alarms),
        "retries": rt.delivery.retries_sent,
    }


# ----------------------------------------------------------------------
# Whole-exchange drivers

def run_loopback_exchange(
        hub: Optional[LoopbackHub] = None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Both sides in one process over a loopback hub.

    The interleaving mirrors the two-process script exactly; the hub is
    drained at each point where TCP would have delivered in the
    background.
    """
    hub = hub if hub is not None else LoopbackHub()
    rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A))
    rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B))
    _drive_first_round(hub, rt_a, rt_b)
    return side_summary(rt_a), side_summary(rt_b)


def _drive_first_round(hub: LoopbackHub, rt_a: NodeRuntime,
                       rt_b: NodeRuntime) -> None:
    """The announce → ack → first-commitment script over a hub."""
    rt_a.advance_to(T_ANNOUNCE)
    rt_a.announce(ASN_B, ROUTE)
    hub.deliver_all()
    rt_b.advance_to(T_ANNOUNCE)
    rt_b.deliver_pending()               # B logs + ACKs
    hub.deliver_all()
    rt_a.advance_to(T_ACK_SEEN)
    rt_a.deliver_pending()               # A logs the ACK
    rt_a.advance_to(T_COMMIT)
    rt_b.advance_to(T_COMMIT)
    rt_a.commit()
    rt_b.commit()
    hub.deliver_all()
    rt_a.advance_to(T_COMMIT_SEEN)
    rt_b.advance_to(T_COMMIT_SEEN)
    rt_a.deliver_pending()
    rt_b.deliver_pending()


# ----------------------------------------------------------------------
# Durable-store variants (kill/restart acceptance, ISSUE 7)

def run_store_phase1(store_dir: str,
                     fsync: str = "always") -> Dict[str, object]:
    """First round of the store script with side A's log on disk.

    Leaves the store *open* on purpose: the ``--kill`` path SIGKILLs the
    process right after this returns, so only what the appends handed
    the kernel survives — exactly the crash the recovery path must
    handle.
    """
    hub = LoopbackHub()
    rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A),
                            store_dir=store_dir, store_fsync=fsync)
    rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B))
    _drive_first_round(hub, rt_a, rt_b)
    return side_summary(rt_a)


def resume_store_exchange(
        store_dir: str, fsync: str = "always",
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Recover side A from ``store_dir`` and run the second round.

    Returns ``(recovered, final)`` summaries: ``recovered`` is the state
    right after replaying the segments (before any new traffic), and
    ``final`` is after the T=120 commitment.  Note the second round must
    *not* take another checkpoint — the checkpoint cursor recovered from
    round one (interval 24 h) already covers it, which is itself part of
    what recovery has to get right.
    """
    hub = LoopbackHub()
    rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A),
                            store_dir=store_dir, store_fsync=fsync)
    # A fresh B endpoint so A's commitment broadcast has a receiver.
    exchange_runtime(ASN_B, hub.attach(ASN_B))
    try:
        recovered = side_summary(rt_a)
        rt_a.advance_to(T_RESUME_COMMIT)
        rt_a.commit()
        hub.deliver_all()
        return recovered, side_summary(rt_a)
    finally:
        rt_a.close()


def run_store_reference() -> Dict[str, object]:
    """The uninterrupted two-round script, entirely in memory.

    Captures the log bytes at the end of round one and at the end, so
    the kill/restart run has ground truth to be compared against.
    """
    hub = LoopbackHub()
    rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A))
    rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B))
    _drive_first_round(hub, rt_a, rt_b)
    phase1_hex = encode_log(rt_a.recorder.log).hex()
    rt_a.advance_to(T_RESUME_COMMIT)
    rt_a.commit()
    hub.deliver_all()
    return {
        "phase1_hex": phase1_hex,
        "final_hex": encode_log(rt_a.recorder.log).hex(),
        "final_root": rt_a.recorder.commitments[-1].root.hex(),
        "entries": len(rt_a.recorder.log),
    }


def run_store_smoke(store_dir: str) -> Dict[str, object]:
    """The full kill/restart acceptance scenario.

    A child process runs round one with ``fsync=always`` and SIGKILLs
    itself mid-flight (no close, no atexit); this process then recovers
    from the segments, finishes the script, and asserts both the
    recovered and the resumed evidence logs are byte-identical to an
    uninterrupted reference run.  Raises :class:`RuntimeError` on any
    divergence.
    """
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [sys.executable, "-m", "repro.runtime.scenario",
         "--store-phase1", store_dir, "--kill"],
        env=env, capture_output=True, text=True)
    if child.returncode != -signal.SIGKILL:
        raise RuntimeError(
            f"store child exited {child.returncode}, expected SIGKILL "
            f"(-{int(signal.SIGKILL)}); stderr: {child.stderr[-2000:]}")

    reference = run_store_reference()
    recovered, final = resume_store_exchange(store_dir)
    if recovered["log_hex"] != reference["phase1_hex"]:
        raise RuntimeError(
            "recovered log differs from the uninterrupted round-one log")
    if final["log_hex"] != reference["final_hex"]:
        raise RuntimeError(
            "resumed log differs from the uninterrupted final log")
    if final["own_root"] != reference["final_root"]:
        raise RuntimeError(
            "resumed commitment root differs from the reference run")
    return {
        "child_returncode": child.returncode,
        "recovered_entries": recovered["entries"],
        "final_entries": final["entries"],
        "reference_entries": reference["entries"],
        "log_digest": final["log_digest"],
        "own_root": final["own_root"],
        "byte_identical": True,
    }


def run_tcp_side(role: str, port: int, peer_port: int,
                 host: str = "127.0.0.1",
                 store_dir: Optional[str] = None,
                 store_fsync: str = "always") -> Dict[str, object]:
    """One side of the exchange over real TCP (the two-process demo)."""
    asn = ASN_A if role == "a" else ASN_B
    peer = ASN_B if role == "a" else ASN_A
    transport = TcpTransport(asn, host=host, port=port,
                             peers={peer: (host, peer_port)})
    transport.start()
    rt: Optional[NodeRuntime] = None
    try:
        rt = exchange_runtime(asn, transport, store_dir=store_dir,
                              store_fsync=store_fsync)
        if role == "a":
            run_side_a(rt)
        else:
            run_side_b(rt)
        return side_summary(rt)
    finally:
        if rt is not None:
            rt.close()
        transport.stop()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Two-process SPIDeR exchange over localhost TCP")
    parser.add_argument("--role", choices=("a", "b"))
    parser.add_argument("--port", type=int,
                        help="port this side listens on")
    parser.add_argument("--peer-port", type=int,
                        help="port the other side listens on")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--json", action="store_true",
                        help="emit the full summary as one JSON line")
    parser.add_argument("--store-dir", metavar="DIR",
                        help="keep this side's evidence log on disk")
    parser.add_argument("--store-fsync", default="always",
                        choices=("never", "batch", "always"))
    parser.add_argument("--store-phase1", metavar="DIR",
                        help="run round one of the durable-store script "
                             "in-process (both sides over loopback)")
    parser.add_argument("--kill", action="store_true",
                        help="with --store-phase1: SIGKILL this process "
                             "the instant round one completes")
    parser.add_argument("--store-smoke", metavar="DIR",
                        help="run the kill/restart acceptance scenario "
                             "end to end (spawns the --kill child)")
    args = parser.parse_args(argv)

    if args.store_smoke:
        summary = run_store_smoke(args.store_smoke)
        if args.json:
            print(json.dumps(summary))
        else:
            print(f"store smoke ok: child SIGKILLed, recovered "
                  f"{summary['recovered_entries']} entries, resumed to "
                  f"{summary['final_entries']}, logs byte-identical")
        return 0

    if args.store_phase1:
        summary = run_store_phase1(args.store_phase1,
                                   fsync=args.store_fsync)
        if args.kill:
            # Die without closing anything: only what the appends
            # already handed the kernel may survive.
            os.kill(os.getpid(), signal.SIGKILL)
        print(json.dumps(summary) if args.json else
              f"phase 1 done: {summary['entries']} entries, "
              f"digest {summary['log_digest'][:16]}...")
        return 0

    if args.role is None or args.port is None or args.peer_port is None:
        parser.error("--role/--port/--peer-port are required unless "
                     "--store-phase1 or --store-smoke is given")

    summary = run_tcp_side(args.role, args.port, args.peer_port,
                           host=args.host, store_dir=args.store_dir,
                           store_fsync=args.store_fsync)
    if args.json:
        print(json.dumps(summary))
    else:
        print(f"AS {summary['asn']}: {summary['entries']} log entries, "
              f"digest {summary['log_digest'][:16]}..., "
              f"own root {summary['own_root'][:16]}...")
    return 0


if __name__ == "__main__":
    sys.exit(main())
