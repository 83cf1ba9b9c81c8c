"""Cost-attribution dump: render a registry snapshot in the paper's
Section 7 categories.

``python -m repro.obs.dump`` runs the canonical two-node scenario
(:mod:`repro.runtime.scenario`) over loopback inside a fresh registry
and prints the cost table the evaluation sections report:

* **§7.5 CPU** — seconds split into signatures / MTT labeling / other
  (other = message handling minus its nested signature work:
  :func:`cpu_split`, which
  :meth:`repro.harness.experiments.ReplayResult.cpu_breakdown` also
  calls), with shares;
* **§7.6 traffic** — bytes by category (BGP vs. SPIDeR vs. proof
  traffic) plus transport frame counts.

§7.7's storage is not a metric: it is the log's own entries
(:meth:`repro.spider.log.SpiderLog.bytes_by_kind`).

``--format json|prom`` emits the same run's raw exporter output for
piping instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .export import snapshot as export_snapshot, to_prometheus
from .registry import Registry, use_registry


# ----------------------------------------------------------------------
# Snapshot aggregation (works on the exported dict, the same data
# ``--format json`` prints)

def counter_by_label(snap: Dict[str, Any], name: str, label: str
                     ) -> Dict[str, float]:
    """Aggregate one counter family by a label."""
    out: Dict[str, float] = {}
    for entry in snap.get("counters", ()):
        if entry["name"] != name:
            continue
        key = entry["labels"].get(label)
        if key is None:
            continue
        out[key] = out.get(key, 0) + entry["value"]
    return out


def counter_total(snap: Dict[str, Any], name: str) -> float:
    return sum(entry["value"] for entry in snap.get("counters", ())
               if entry["name"] == name)


def cpu_split(sections: Mapping[str, float]) -> Dict[str, float]:
    """§7.5: signatures / mtt / other from CPU seconds by section.

    ``handling`` wraps all message processing and *includes* its nested
    signature work, so other = handling − signatures (the one commitment
    signature per interval signed outside handling is a negligible
    approximation error).  Sections outside the recorder's three count
    as "other" too.
    """
    signatures = sections.get("signatures", 0.0)
    other = max(0.0, sections.get("handling", 0.0) - signatures)
    for name, seconds in sections.items():
        if name not in ("signatures", "mtt", "handling"):
            other += seconds
    return {"signatures": signatures, "mtt": sections.get("mtt", 0.0),
            "other": other}


def cpu_attribution(snap: Dict[str, Any]) -> Dict[str, float]:
    """§7.5 split of a snapshot's ``cpu_seconds_total`` counters."""
    return cpu_split(counter_by_label(snap, "cpu_seconds_total", "section"))


def traffic_attribution(snap: Dict[str, Any]) -> Dict[str, float]:
    return counter_by_label(snap, "traffic_bytes_total", "category")


# ----------------------------------------------------------------------
# Rendering

def _table(title: str, rows: List[Tuple[str, str]]) -> str:
    width = max((len(name) for name, _ in rows), default=0)
    lines = [title, "-" * len(title)]
    lines += [f"{name.ljust(width)}  {value}" for name, value in rows]
    return "\n".join(lines)


def render_cost_table(snap: Dict[str, Any]) -> str:
    blocks: List[str] = []

    cpu = cpu_attribution(snap)
    total = sum(cpu.values())
    rows: List[Tuple[str, str]] = []
    for name in ("signatures", "mtt", "other"):
        seconds = cpu[name]
        share = seconds / total * 100 if total else 0.0
        rows.append((name, f"{seconds * 1000:10.2f} ms  {share:5.1f} %"))
    rows.append(("total", f"{total * 1000:10.2f} ms  100.0 %"))
    blocks.append(_table("CPU attribution (paper §7.5)", rows))

    traffic = traffic_attribution(snap)
    if traffic:
        rows = [(category, f"{int(nbytes):>10} B")
                for category, nbytes in sorted(traffic.items())]
        blocks.append(_table("Traffic by category (paper §7.6)", rows))
    frames = counter_total(snap, "transport_frames_sent_total")
    frame_bytes = counter_total(snap, "transport_bytes_sent_total")
    if frames:
        blocks.append(_table("Transport egress", [
            ("frames", f"{int(frames):>10}"),
            ("bytes", f"{int(frame_bytes):>10} B"),
        ]))

    sigs = counter_total(snap, "signatures_made_total")
    checked = counter_total(snap, "signatures_checked_total")
    payloads = counter_total(snap, "payloads_signed_total")
    if sigs or checked:
        blocks.append(_table("Signature operations", [
            ("made", f"{int(sigs):>10}"),
            ("payloads covered", f"{int(payloads):>10}"),
            ("checked", f"{int(checked):>10}"),
        ]))

    spans = snap.get("spans", ())
    if spans:
        rows = [(s["name"],
                 f"[{s['start']:9.3f}, {s['end']:9.3f}]s "
                 f"{s['labels'].get('node', '')}")
                for s in spans[:20]]
        blocks.append(_table("Trace spans (component clocks)", rows))
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# Snapshot sources

def scenario_registry() -> Registry:
    """Run the two-node loopback exchange inside a fresh registry."""
    with use_registry(Registry()) as registry:
        from ..runtime.scenario import run_loopback_exchange
        run_loopback_exchange()
    return registry


def scenario_snapshot() -> Dict[str, Any]:
    return export_snapshot(scenario_registry())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dump",
        description="Run the two-node scenario and render its repro.obs "
                    "registry as the paper's Section 7 cost-attribution "
                    "table")
    parser.add_argument("--format", choices=("table", "json", "prom"),
                        default="table")
    args = parser.parse_args(argv)

    if args.format == "prom":
        text = to_prometheus(scenario_registry())
    else:
        snap = scenario_snapshot()
        text = (json.dumps(snap, indent=2) if args.format == "json"
                else render_cost_table(snap)) + "\n"
    try:
        sys.stdout.write(text)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: not an error.
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
