"""``python -m repro.store.inspect`` — look inside a store directory.

Lists every segment (base index, record count, bytes, torn tail) and,
with ``--verify``, runs the full recovery verification — CRC framing
plus the Section 6.5 hash chain over every record's entry bytes —
printing the chain head the way ``side_summary`` reports log digests.
Exit status is non-zero when the directory is one the runtime would
refuse, and the report names the file or the first record that breaks
the chain, so the CI restart-survival smoke can assert integrity — and
that an edited record loses it — with one command.

One pass over :func:`repro.store.seglog.read_directory`, the reader a
cold open uses, so the listing, the verdict and the runtime cannot
disagree about a directory.  Read-only by design: unlike
:func:`repro.store.recovery.recover`, inspection never truncates a torn
tail or removes a torn create — it reports one instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from ..crypto.hashing import DIGEST_SIZE
from ..spider.log import LogEntry, TamperError
from .recovery import rebuild_entries
from .segment import StoreCorruptionError
from .seglog import read_directory


def inspect_directory(directory: str, verify: bool) -> Dict[str, Any]:
    """The report for one directory: a summary per segment walked,
    oldest first, a ``verification`` verdict when ``verify``, and
    ``error`` when the walk or the chain refused the directory (the
    segments listed are then the ones walked up to the refusal)."""
    segments: List[Dict[str, Any]] = []
    report: Dict[str, Any] = {"directory": directory,
                              "segments": segments}
    records = 0
    last: Optional[LogEntry] = None
    try:
        for info, result in read_directory(directory):
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
            segments.append(summary)
            if verify and result.records:
                records += len(result.records)
                last = rebuild_entries(result.records, last)[-1]
    except (StoreCorruptionError, TamperError) as exc:
        report["error"] = str(exc)
    else:
        if verify:
            report["verification"] = {
                "segments": len(segments),
                "records": records,
                "chain_head": (last.chain if last is not None
                               else bytes(DIGEST_SIZE)).hex(),
                "next_index": last.index + 1 if last is not None else 0,
            }
    return report


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

    report = inspect_directory(args.directory, args.verify)
    status = 1 if "error" in report else 0

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
    if "error" in report:
        print(f"FAILED: {report['error']}")
    elif not report["segments"]:
        print(f"{args.directory}: no segments")
    if "verification" in report:
        verdict = report["verification"]
        print(f"verified {verdict['records']} records in "
              f"{verdict['segments']} segments; chain head "
              f"{verdict['chain_head'][:16]}..., next index "
              f"{verdict['next_index']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
