#!/usr/bin/env python3
"""SPIDeR on the Figure 5 topology: the full companion-protocol stack.

Builds the paper's 10-AS evaluation network, injects a synthetic
RouteViews-style trace at AS 2, runs SPIDeR recorders everywhere with
periodic commitments, triggers verification of AS 5 by all five of its
neighbors, and finally injects the §7.4 over-aggressive-filter fault to
show detection end to end.  Prints the overhead numbers the paper's
evaluation reports (CPU split, traffic rates, storage).

Run:  python examples/spider_network.py        (~30 s)

The ``--transport`` flag picks where SPIDeR messages travel:

* ``sim`` (default) — the deterministic event-loop simulator, full
  Figure 5 experiment as described above;
* ``loopback`` — the two-node canonical exchange over the in-process
  runtime transport (real codec + framing, no sockets);
* ``tcp`` — the same exchange over real localhost TCP.  With no
  ``--role`` this process spawns its peer as a second OS process; with
  ``--role a|b`` it runs one side so you can drive both terminals
  yourself (see README "Two-process TCP demo").

The loopback and tcp paths must print identical log digests — that is
the runtime layer's acceptance property.
"""

import argparse

from repro.harness.experiments import proof_experiment, \
    run_replay_experiment
from repro.harness.reporting import format_bytes, format_rate, \
    render_table
from repro.faults.adversaries import SEC74_SPECS
from repro.faults.campaign import run_spec
from repro.netsim.topology import FOCUS_AS


def run_sim():
    print("Running the §7.2 methodology at 1/500 scale "
          "(setup period, then bursty replay with commitments)...\n")
    replay = run_replay_experiment(scale=0.002, k=10)

    breakdown = replay.cpu_breakdown()
    print(render_table(
        "Recorder CPU at AS 5 (replay period)",
        ["section", "seconds"],
        [("signatures", breakdown["signatures"]),
         ("MTT generation", breakdown["mtt"]),
         ("other", breakdown["other"]),
         ("NetReview would cost", replay.netreview_cpu())]))
    print()
    print(render_table(
        "Traffic at AS 5",
        ["stream", "rate"],
        [("BGP", format_rate(replay.bgp_rate_bps())),
         ("SPIDeR", format_rate(replay.spider_rate_bps()))]))
    print()
    print(render_table(
        "Storage at AS 5",
        ["component", "bytes"],
        [("log (replay period)",
          format_bytes(replay.log_bytes_replay())),
         ("routing snapshot", format_bytes(replay.snapshot_bytes())),
         ("per commitment",
          format_bytes(replay.commitment_bytes()
                       / max(1, replay.commitments_made)))]))

    print("\nVerifying AS 5's last commitment from all five neighbors...")
    proofs = proof_experiment(replay)
    rows = [(f"AS{n}", format_bytes(proofs.per_neighbor_bytes[n]),
             proofs.per_neighbor_count[n],
             f"{proofs.check_seconds[n]:.3f}s")
            for n in sorted(proofs.per_neighbor_bytes)]
    print(render_table(
        "Proof sets",
        ["neighbor", "size", "proofs", "check time"], rows))
    print(f"\nAll checks clean: {proofs.checks_ok}")
    print(f"Single-prefix ('route to Google') proof: "
          f"{format_bytes(proofs.single_prefix_bytes)} in "
          f"{proofs.single_prefix_seconds * 1000:.1f} ms")

    print("\nInjecting the §7.4 over-aggressive-filter fault at AS 5...")
    entry = run_spec(SEC74_SPECS["overaggressive-filter"])
    for record in entry["spider_detections"]:
        print(f"  detected by AS{record['detector']}: {record['kind']}")
    assert entry["spider_detections"] and entry["ok"], entry["problems"]


def print_summary(summary):
    print(f"  AS {summary['asn']}: {summary['entries']} log entries, "
          f"log digest {summary['log_digest'][:16]}..., "
          f"commitment root {summary['own_root'][:16]}...")


def run_loopback():
    from repro.runtime.scenario import run_loopback_exchange
    print("Canonical announce → ack → commitment exchange over the "
          "in-process loopback transport:\n")
    summary_a, summary_b = run_loopback_exchange()
    for summary in (summary_a, summary_b):
        print_summary(summary)
    assert summary_a["peer_root"] == summary_b["own_root"]
    print("\nBoth sides verified each other's commitment root.")


def run_tcp(role, port, peer_port):
    from repro.runtime.scenario import main as scenario_main
    if role is not None:
        # One side only: the peer runs in another terminal.
        return scenario_main(["--role", role, "--port", str(port),
                              "--peer-port", str(peer_port)])

    # No role given: be side A here and spawn side B as a real second
    # OS process, so the demo still exercises genuine TCP between
    # processes.
    import json
    import os
    import subprocess
    import sys
    from repro.runtime.scenario import run_tcp_side
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    print(f"Spawning peer process (side B) on port {peer_port}...\n")
    peer = subprocess.Popen(
        [sys.executable, "-m", "repro.runtime.scenario", "--role", "b",
         "--port", str(peer_port), "--peer-port", str(port), "--json"],
        stdout=subprocess.PIPE, env=env, text=True)
    try:
        summary_a = run_tcp_side("a", port, peer_port)
        out, _ = peer.communicate(timeout=120)
        summary_b = json.loads(out)
    finally:
        if peer.poll() is None:
            peer.kill()
    for summary in (summary_a, summary_b):
        print_summary(summary)
    assert summary_a["peer_root"] == summary_b["own_root"]
    print("\nBoth processes verified each other's commitment root.")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--transport",
                        choices=("sim", "loopback", "tcp"),
                        default="sim")
    parser.add_argument("--role", choices=("a", "b"), default=None,
                        help="tcp only: run just this side")
    parser.add_argument("--port", type=int, default=None,
                        help="tcp only: this side's listen port "
                             "(default 9401 for side a, 9402 for b)")
    parser.add_argument("--peer-port", type=int, default=None,
                        help="tcp only: the other side's listen port")
    args = parser.parse_args(argv)

    if args.transport == "sim":
        run_sim()
    elif args.transport == "loopback":
        run_loopback()
    else:
        own, peer = (9402, 9401) if args.role == "b" else (9401, 9402)
        port = args.port if args.port is not None else own
        peer_port = args.peer_port if args.peer_port is not None \
            else peer
        return run_tcp(args.role, port, peer_port)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
