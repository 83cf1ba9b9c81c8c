"""Machine-readable runtime-layer throughput probe.

Measures the :mod:`repro.runtime` subsystem and writes
``BENCH_runtime.json`` at the repo root so regressions are diffable:

* codec throughput — encode and decode messages/second for a signed
  SPIDeR announcement (decode on both the ``bytes`` and the zero-copy
  ``memoryview`` path), plus bytes/message for each wire type;
* framing micro-bench — the writev-style :func:`encode_frames` batch
  path against a per-frame :func:`encode_frame` loop, and the
  zero-copy :meth:`FrameDecoder.feed`, at batch sizes 1, 16, and 256;
* loopback and TCP transport throughput — the full encode → frame →
  decode → dispatch path through the one ``send``, at the batch the
  recorder's outbox hands over (``SpiderConfig().max_batch``) and at
  batch 1 (a broadcast, or a lone ACK);
* a many-peer soak — 50 concurrent sessions against one node runtime,
  with the per-peer backpressure metrics read back from ``repro.obs``;
* a bandwidth cross-check against §7.6: the paper reports 11.8 kbps of
  BGP and 32.6 kbps of SPIDeR traffic at AS 5.

Every throughput number is best-of-``REPEATS`` — the box is noisy and
the interesting quantity is capability, not scheduling luck.  The
``trajectory`` section keeps the numbers committed before the
zero-copy/batching push, so the report shows where the runtime came
from, not just where it is.

Run with ``PYTHONPATH=src python benchmarks/bench_runtime.py``.
CI runs ``--quick --check-against BENCH_runtime.json``: a fast pass
that fails if the decode/encode *ratio* falls more than 20% below the
committed one (ratios, not absolute rates, so a slower CI box does not
fail the build).
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bgp.prefix import Prefix  # noqa: E402
from repro.bgp.route import Route  # noqa: E402
from repro.crypto.keys import KeyRegistry, make_identity  # noqa: E402
from repro.crypto.signatures import Signer  # noqa: E402
from repro.runtime.codec import decode_message, \
    encode_message  # noqa: E402
from repro.runtime.framing import FrameDecoder, encode_frame, \
    encode_frames  # noqa: E402
from repro.obs.export import snapshot  # noqa: E402
from repro.obs.registry import Registry, use_registry  # noqa: E402
from repro.runtime.soak import run_soak  # noqa: E402
from repro.runtime.tcp import TcpTransport  # noqa: E402
from repro.runtime.transport import LoopbackHub  # noqa: E402
from repro.spider.config import SpiderConfig  # noqa: E402
from repro.spider.wire import SpiderAck, SpiderAnnounce, \
    SpiderCommitment, SpiderWithdraw  # noqa: E402

#: §7.6, Figure 8: average traffic at AS 5 during replay.
PAPER_BGP_KBPS = 11.8
PAPER_SPIDER_KBPS = 32.6

CODEC_ITERATIONS = 20000
TRANSPORT_MESSAGES = 1000
REPEATS = 5
#: Messages per ``send``: a full signed chunk, as the recorder sends.
SEND_BATCH = SpiderConfig().max_batch
FRAMING_BATCH_SIZES = (1, 16, 256)
FRAMING_OPS = 4096
SOAK_SESSIONS = 50
SOAK_MESSAGES = 20

#: The runtime numbers committed before the zero-copy decode and
#: batched-framing push — kept in every report as the trajectory
#: baseline the current numbers are measured against.
PREVIOUS = {
    "encode_msgs_per_sec": 153486.205,
    "decode_msgs_per_sec": 37341.504,
    "loopback_msgs_per_sec": 27517.756,
    "tcp_msgs_per_sec": 5898.725,
}


def sample_messages():
    registry = KeyRegistry()
    alice = make_identity(11, registry=registry, bits=512, seed=901)
    signer = Signer(alice)
    prefix = Prefix.parse("203.0.113.0/24")
    route = Route(prefix=prefix, as_path=(11, 4000), neighbor=4000)
    announce = SpiderAnnounce.make(signer, receiver=12, timestamp=10.0,
                                   route=route, underlying=None)
    return {
        "announce": announce,
        "withdraw": SpiderWithdraw.make(signer, receiver=12,
                                        timestamp=11.0, prefix=prefix),
        "ack": SpiderAck.make(signer, sender=12, timestamp=12.0,
                              message_hash=announce.message_hash()),
        "commitment": SpiderCommitment.make(signer, commit_time=60.0,
                                            root=b"r" * 20),
    }


def _best_rate(op, count, repeats):
    """Best observed ops/second over ``repeats`` timed runs."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        op()
        elapsed = time.perf_counter() - start
        best = max(best, count / elapsed)
    return best


def measure_codec(messages, iterations, repeats):
    announce = messages["announce"]
    encoded = encode_message(announce)
    view = memoryview(encoded)

    def run_encode():
        for _ in range(iterations):
            encode_message(announce)

    def run_decode():
        for _ in range(iterations):
            decode_message(encoded)

    def run_decode_view():
        for _ in range(iterations):
            decode_message(view)

    return {
        "encode_msgs_per_sec": _best_rate(run_encode, iterations,
                                          repeats),
        "decode_msgs_per_sec": _best_rate(run_decode, iterations,
                                          repeats),
        "decode_view_msgs_per_sec": _best_rate(run_decode_view,
                                               iterations, repeats),
        "frame_bytes_per_message": {
            name: len(encode_frame(encode_message(m)))
            for name, m in messages.items()
        },
    }


def measure_framing(messages, ops, repeats):
    """The gather path against the per-frame loop it replaces.

    At batch size 1 the two are the same shape (the batch overhead in
    isolation); at 16 and 256 the single ``b"".join`` pass pulls ahead.
    ``feed`` is measured on whole-batch chunks — the zero-copy fast
    path where every frame is a view into the chunk.
    """
    payload = encode_message(messages["announce"])
    results = {}
    for batch in FRAMING_BATCH_SIZES:
        payloads = [payload] * batch
        reps = max(1, ops // batch)
        count = reps * batch
        stream = encode_frames(payloads)
        decoder = FrameDecoder()

        def run_batched():
            for _ in range(reps):
                encode_frames(payloads)

        def run_single_loop():
            for _ in range(reps):
                for p in payloads:
                    encode_frame(p)

        def run_feed():
            for _ in range(reps):
                decoder.feed(stream)

        results[f"batch_{batch}"] = {
            "encode_frames_msgs_per_sec":
                _best_rate(run_batched, count, repeats),
            "encode_frame_loop_msgs_per_sec":
                _best_rate(run_single_loop, count, repeats),
            "feed_msgs_per_sec": _best_rate(run_feed, count, repeats),
        }
    return results


def _chunk_and_single(run):
    """``run(send_batch) -> (msgs/s, sending transport)`` at a full
    chunk and at one message per ``send``."""
    batched_rate, sender = run(SEND_BATCH)
    single_rate, _ = run(1)
    return {
        "msgs_per_sec": batched_rate,
        "single_msgs_per_sec": single_rate,
        "send_batch": SEND_BATCH,
        "bytes_per_message": sender.bytes_sent // sender.frames_sent,
    }


def measure_loopback(messages, count):
    announce = messages["announce"]

    def run(send_batch):
        hub = LoopbackHub()
        sender = hub.attach(1)
        received = []
        hub.attach(2).on_receive(received.append)
        burst = [announce] * send_batch
        total = (count // send_batch) * send_batch
        start = time.perf_counter()
        for _ in range(count // send_batch):
            sender.send(2, burst)
        hub.deliver_all()
        elapsed = time.perf_counter() - start
        assert len(received) == total
        return total / elapsed, sender

    return _chunk_and_single(run)


def measure_tcp(messages, count):
    announce = messages["announce"]

    def run(send_batch):
        server = TcpTransport(2)
        received = []
        server.on_receive(received.append)
        server.start()
        client = TcpTransport(1,
                              peers={2: ("127.0.0.1", server.port)})
        client.start()
        try:
            burst = [announce] * send_batch
            total = (count // send_batch) * send_batch
            start = time.perf_counter()
            for _ in range(count // send_batch):
                client.send(2, burst)
            deadline = time.monotonic() + 60
            while len(received) < total:
                if time.monotonic() > deadline:
                    raise TimeoutError("TCP probe did not drain")
                time.sleep(0.005)
            elapsed = time.perf_counter() - start
        finally:
            client.stop()
            server.stop()
        return total / elapsed, client

    return _chunk_and_single(run)


def measure_soak(sessions, messages_per_session):
    return run_soak(sessions=sessions,
                    messages_per_session=messages_per_session,
                    hub_asn=5)


def trajectory(codec, loopback, tcp):
    """Where the runtime was before this push, and the speedups."""
    current = {
        "encode_msgs_per_sec": codec["encode_msgs_per_sec"],
        "decode_msgs_per_sec": codec["decode_msgs_per_sec"],
        "loopback_msgs_per_sec": loopback["msgs_per_sec"],
        "tcp_msgs_per_sec": tcp["msgs_per_sec"],
    }
    return {
        "previous": dict(PREVIOUS),
        "speedup": {
            key.replace("_msgs_per_sec", ""):
                current[key] / PREVIOUS[key]
            for key in PREVIOUS
        },
    }


def paper_crosscheck(codec):
    """How the honest frame sizes line up with the §7.6 kbps figures."""
    announce_bytes = codec["frame_bytes_per_message"]["announce"]
    spider_bps = PAPER_SPIDER_KBPS * 1000
    return {
        "paper_bgp_kbps": PAPER_BGP_KBPS,
        "paper_spider_kbps": PAPER_SPIDER_KBPS,
        "announce_frame_bytes": announce_bytes,
        # Announcements/second the paper's SPIDeR byte budget would
        # carry if it were all announce frames of this codec.
        "announces_per_sec_at_paper_rate":
            spider_bps / 8 / announce_bytes,
    }


def check_against(report, path):
    """Ratio-based regression gate for CI.

    Absolute throughput depends on the box; the decode/encode *ratio*
    mostly does not (both sides run the same interpreter on the same
    hardware).  Fail if the measured ratio falls more than 20% below
    the committed one.
    """
    with open(path) as fh:
        committed = json.load(fh)
    committed_codec = committed["codec"]
    committed_ratio = committed_codec["decode_msgs_per_sec"] / \
        committed_codec["encode_msgs_per_sec"]
    measured = report["codec"]
    measured_ratio = measured["decode_msgs_per_sec"] / \
        measured["encode_msgs_per_sec"]
    floor = committed_ratio * 0.8
    verdict = {
        "committed_decode_to_encode_ratio": committed_ratio,
        "measured_decode_to_encode_ratio": measured_ratio,
        "floor": floor,
        "ok": measured_ratio >= floor,
    }
    print(json.dumps({"check_against": verdict}, indent=2))
    if not verdict["ok"]:
        print(f"FAIL: decode/encode ratio {measured_ratio:.3f} is "
              f">20% below the committed {committed_ratio:.3f}",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="SPIDeR runtime-layer throughput probe")
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced iteration counts, no soak, no file writes — "
             "the CI smoke configuration")
    parser.add_argument(
        "--check-against", metavar="PATH",
        help="committed BENCH_runtime.json to gate the decode/encode "
             "ratio against (exit 1 on >20%% regression)")
    args = parser.parse_args(argv)

    if args.quick:
        iterations, transport_count, repeats = 2000, 300, 2
        framing_ops = 1024
    else:
        iterations, transport_count, repeats = \
            CODEC_ITERATIONS, TRANSPORT_MESSAGES, REPEATS
        framing_ops = FRAMING_OPS

    # Reports into a fresh obs registry; the snapshot lands next to the
    # BENCH json (render it with
    # ``python -m repro.obs.dump --snapshot BENCH_runtime_obs.json``).
    with use_registry(Registry()) as registry:
        messages = sample_messages()
        codec = measure_codec(messages, iterations, repeats)
        loopback = measure_loopback(messages, transport_count)
        tcp = measure_tcp(messages, transport_count)
        report = {
            "iterations": {"codec": iterations,
                           "transport": transport_count,
                           "repeats": repeats},
            "codec": codec,
            "framing": measure_framing(messages, framing_ops, repeats),
            "loopback": loopback,
            "tcp": tcp,
            "trajectory": trajectory(codec, loopback, tcp),
            "section_7_6": paper_crosscheck(codec),
        }
        if not args.quick:
            report["soak"] = measure_soak(SOAK_SESSIONS, SOAK_MESSAGES)
        obs_snapshot = snapshot(registry)

    print(json.dumps(report, indent=2))
    status = 0
    if args.check_against:
        status = check_against(report, args.check_against)
    if not args.quick:
        root = os.path.join(os.path.dirname(__file__), "..")
        with open(os.path.join(root, "BENCH_runtime.json"), "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        with open(os.path.join(root, "BENCH_runtime_obs.json"),
                  "w") as fh:
            json.dump(obs_snapshot, fh, indent=2)
            fh.write("\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
