"""``python -m repro.store.inspect`` — look inside a store directory.

Lists every segment (base index, record count, bytes, torn tail) and,
with ``--verify``, runs the full recovery verification — CRC framing
plus the Section 6.5 hash chain over every record's entry bytes —
printing the chain head the way ``side_summary`` reports log digests.
Exit status is non-zero when verification fails, and the report names
the first record that breaks the chain, so the CI restart-survival
smoke can assert integrity — and that an edited record loses it — with
one command.

Read-only by design: unlike opening a :class:`SegmentedLogStore`,
inspection never truncates a torn tail — it reports one instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from ..spider.log import TamperError
from .recovery import rebuild_entries
from .segment import RawRecord, StoreCorruptionError, list_segments, \
    scan_segment


def inspect_directory(directory: str) -> List[Dict[str, Any]]:
    """One summary dict per segment file, oldest first."""
    out: List[Dict[str, Any]] = []
    for info in list_segments(directory):
        result = scan_segment(info.path)
        summary: Dict[str, Any] = {
            "file": info.path,
            "base_index": result.base_index,
            "records": len(result.records),
            "bytes": result.file_bytes,
            "torn_bytes": result.torn_bytes,
        }
        if result.records:
            summary["first_index"] = result.records[0].index
            summary["last_index"] = result.records[-1].index
        if result.error is not None:
            summary["error"] = result.error
        out.append(summary)
    return out


def verify_directory(directory: str) -> Dict[str, Any]:
    """Full verification; raises on corruption or tampering.

    A torn tail on the *final* segment is tolerated (that is a crash,
    not an attack — the records before it still verify); any violation
    elsewhere fails.
    """
    segments = list_segments(directory)
    records: List[RawRecord] = []
    last = len(segments) - 1
    for position, info in enumerate(segments):
        result = scan_segment(info.path)
        if result.error is not None and position != last:
            raise StoreCorruptionError(
                f"sealed segment {info.path}: {result.error}")
        if result.records and \
                result.records[0].index != result.base_index:
            raise StoreCorruptionError(
                f"segment {info.path}: base index mismatch")
        records.extend(result.records)
    entries = rebuild_entries(records)
    head = entries[-1].chain if entries else b""
    return {
        "segments": len(segments),
        "records": len(entries),
        "chain_head": head.hex(),
        "next_index": entries[-1].index + 1 if entries else 0,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.inspect",
        description="List and verify the segments of a durable "
                    "tamper-evident log store")
    parser.add_argument("directory", help="store directory to inspect")
    parser.add_argument("--verify", action="store_true",
                        help="decode every record and verify the "
                             "Section 6.5 hash chain")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as one JSON document")
    args = parser.parse_args(argv)

    report: Dict[str, Any] = {
        "directory": args.directory,
        "segments": inspect_directory(args.directory),
    }
    status = 0
    if args.verify:
        try:
            report["verification"] = verify_directory(args.directory)
        except (StoreCorruptionError, TamperError) as exc:
            report["verification"] = {"error": str(exc)}
            status = 1

    if args.json:
        print(json.dumps(report, indent=2))
        return status

    for seg in report["segments"]:
        line = (f"{seg['file']}  base={seg['base_index']}  "
                f"records={seg['records']}  bytes={seg['bytes']}")
        if seg["torn_bytes"]:
            line += f"  torn={seg['torn_bytes']}"
        if "error" in seg:
            line += f"  ERROR: {seg['error']}"
        print(line)
    if not report["segments"]:
        print(f"{args.directory}: no segments")
    if "verification" in report:
        verdict = report["verification"]
        if "error" in verdict:
            print(f"VERIFY FAILED: {verdict['error']}")
        else:
            print(f"verified {verdict['records']} records in "
                  f"{verdict['segments']} segments; chain head "
                  f"{verdict['chain_head'][:16]}..., next index "
                  f"{verdict['next_index']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
