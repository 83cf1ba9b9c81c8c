"""Machine-readable durable-store probe.

Measures the :mod:`repro.store` subsystem and writes
``BENCH_store.json`` at the repo root so regressions are diffable:

* append throughput per fsync policy — ``never`` (OS-buffered
  baseline), ``batch`` (group commit at the 64 KB threshold), and
  ``always`` (one fsync per append, the no-acked-entry-lost
  configuration the kill/restart acceptance runs under);
* recovery — records/second to replay, CRC-check, and chain-verify a
  multi-segment store back into memory on a cold open;
* a storage cross-check against §7.7: the paper stores one 20-byte
  seed plus bookkeeping — about 32 bytes of log per commitment.  The
  report shows the logical 32 bytes next to the actual frame bytes on
  disk, so the framing overhead is an explicit, tracked number.

Append rates are best-of-``REPEATS`` into a fresh directory each run;
the interesting quantity is capability, not scheduling luck.  The
fsync-policy spread *is* the §6.5 durability cost model: the gap
between ``never`` and ``always`` is the price of crash-proof
acknowledgments on this box.

Run with ``PYTHONPATH=src python benchmarks/bench_store.py``.
CI runs ``--quick``: reduced counts, no BENCH_store.json rewrite, but
the obs snapshot still lands in ``BENCH_store_obs.json`` so the
store_* metric schema is exercised end to end.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.export import snapshot  # noqa: E402
from repro.obs.registry import Registry, use_registry  # noqa: E402
from repro.spider.log import EntryKind, SpiderLog  # noqa: E402
from repro.store import SegmentedLogStore, recover  # noqa: E402
from repro.store.segment import FRAME_OVERHEAD, \
    RECORD_OVERHEAD  # noqa: E402

#: §7.7: "the log grows by about 32 bytes per commitment" (one 20-byte
#: seed plus timestamp bookkeeping).
PAPER_BYTES_PER_COMMITMENT = 32

#: Appends per timed run.  ``always`` pays one fsync per append, so it
#: gets a smaller count to keep the probe bounded on spinning media.
APPENDS = {"never": 5000, "batch": 5000, "always": 500}
QUICK_APPENDS = {"never": 400, "batch": 400, "always": 50}
REPEATS = 3
SEGMENT_BYTES = 256 << 10


def commitment_payload(i):
    return {"seed": bytes(20), "root": b"root-%06d" % i}


def fill_store(directory, n, fsync, registry):
    store = SegmentedLogStore(directory, fsync=fsync,
                              segment_bytes=SEGMENT_BYTES,
                              registry=registry, node="bench")
    log = SpiderLog(retention_seconds=1e9, sink=store)
    for i in range(n):
        log.append(float(i), EntryKind.COMMITMENT,
                   commitment_payload(i))
    store.sync()
    store.close()
    return store


def measure_policy(workdir, policy, n, repeats, registry):
    """Best-of append rate plus a cold-open recovery of the result."""
    best_rate = 0.0
    final_dir = None
    for attempt in range(repeats):
        directory = os.path.join(workdir, f"{policy}-{attempt}")
        start = time.perf_counter()
        fill_store(directory, n, policy, registry)
        elapsed = time.perf_counter() - start
        best_rate = max(best_rate, n / elapsed)
        final_dir = directory

    reopened = SegmentedLogStore(final_dir, fsync=policy,
                                 segment_bytes=SEGMENT_BYTES,
                                 registry=registry, node="bench")
    recovery = recover(reopened)
    reopened.close()
    assert len(recovery.entries) == n, "recovery lost records"
    disk_bytes = sum(info.size_bytes
                     for info in reopened.segments())
    return {
        "appends_per_sec": best_rate,
        "recovery_seconds": recovery.stats.duration_seconds,
        "recovery_records_per_sec":
            n / recovery.stats.duration_seconds,
        "segments": recovery.stats.segments,
        "disk_bytes": disk_bytes,
        "records": n,
    }


def storage_crosscheck(policy_report):
    """§7.7: logical vs on-disk bytes for one commitment record."""
    n = policy_report["records"]
    disk_per_record = policy_report["disk_bytes"] / n
    return {
        "paper_bytes_per_commitment": PAPER_BYTES_PER_COMMITMENT,
        "disk_bytes_per_record": disk_per_record,
        "frame_overhead_bytes": FRAME_OVERHEAD + RECORD_OVERHEAD,
        "overhead_ratio":
            disk_per_record / PAPER_BYTES_PER_COMMITMENT,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="SPIDeR durable-store throughput probe")
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced counts; writes only BENCH_store_obs.json — the "
             "CI smoke configuration")
    args = parser.parse_args(argv)

    counts = QUICK_APPENDS if args.quick else APPENDS
    repeats = 1 if args.quick else REPEATS

    workdir = tempfile.mkdtemp(prefix="bench-store-")
    try:
        with use_registry(Registry()) as registry:
            policies = {
                policy: measure_policy(workdir, policy, counts[policy],
                                       repeats, registry)
                for policy in ("never", "batch", "always")
            }
            report = {
                "iterations": {"appends": counts, "repeats": repeats,
                               "segment_bytes": SEGMENT_BYTES},
                "policies": policies,
                "fsync_cost": {
                    # The §6.5 durability price: crash-proof acks cost
                    # this slowdown factor over the OS-buffered path.
                    "always_vs_never_slowdown":
                        policies["never"]["appends_per_sec"] /
                        policies["always"]["appends_per_sec"],
                    "batch_vs_never_slowdown":
                        policies["never"]["appends_per_sec"] /
                        policies["batch"]["appends_per_sec"],
                },
                "section_7_7": storage_crosscheck(policies["batch"]),
            }
            obs_snapshot = snapshot(registry)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps(report, indent=2))
    root = os.path.join(os.path.dirname(__file__), "..")
    if not args.quick:
        with open(os.path.join(root, "BENCH_store.json"), "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    with open(os.path.join(root, "BENCH_store_obs.json"), "w") as fh:
        json.dump(obs_snapshot, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
