"""``python -m repro.runtime.dump``: the live cost-attribution run.

Runs the canonical two-node scenario (:mod:`repro.runtime.scenario`)
over loopback inside a fresh registry and prints it as the cost table
the evaluation sections report (:func:`repro.obs.dump.render_cost_table`).
``--format json|prom`` emits the same run's raw exporter output for
piping instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, Sequence

from ..obs.dump import render_cost_table
from ..obs.export import snapshot as export_snapshot, to_prometheus
from ..obs.registry import Registry, use_registry
from .scenario import run_loopback_exchange


def scenario_registry() -> Registry:
    """Run the two-node loopback exchange inside a fresh registry."""
    with use_registry(Registry()) as registry:
        run_loopback_exchange()
    return registry


def scenario_snapshot() -> Dict[str, Any]:
    return export_snapshot(scenario_registry())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.dump",
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
