"""One command: run a seeded SPIDeR pipeline workload and print metrics.

    python3 benchmarks/e2e/run.py --workload flood_batch --seed 1 \
        --seconds 15 --trace 0

prints every end-to-end metric by name and unit (``--trace 1``: every
per-layer metric), the log head, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The process re-execs
itself once with ``PYTHONHASHSEED=0`` so set iteration order, and with
it every byte the program logs, is a function of ``--seed`` alone.
"""

import argparse
import json
import os
import sys
import time

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: ``--seconds`` at which workloads run at scale 1 (``run_seconds`` in
#: BENCHMARK.json): the measured part then takes about this long on the
#: sizing sandbox.
REFERENCE_SECONDS = 15


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(REFERENCE_SECONDS),
                        help="target length of the measured part; sizes "
                             "scale with it (counts of units do not)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="extra size factor (the smoke test uses "
                             "0.1)")
    return parser.parse_args(argv)


def run_workload(name, seed, scale, trace):
    """Run one workload; returns (report lines, result object)."""
    from harness import Pipeline
    from layers import Tracer, derive, layer_table
    from workloads import scaled, spec_named

    spec = scaled(spec_named(name), scale)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer() if trace else None
    pipeline = Pipeline(spec, seed, OUT_DIR, tracer=tracer)
    try:
        try:
            pipeline.setup()
            pipeline.run()
        finally:
            pipeline.close()
        metrics = pipeline.end_to_end()
    finally:
        pipeline.remove_store()
    tally = pipeline.tally
    attempted = sum(tally.attempted.values())
    failed = sum(tally.failed.values())
    correct = failed == 0 and pipeline.controls_fired == 2
    run_record = {
        "workload": name, "seed": seed, "scale": scale, "trace": trace,
        "log_head": pipeline.log_head, "log_length": pipeline.log_length,
        "attempted": tally.attempted, "failed": tally.failed,
        "notes": tally.notes,
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()},
        "units": [u.as_dict() for u in pipeline.clock.units],
    }
    if tracer is not None:
        trace_record = dict(tracer.dump(), run=run_record,
                            facts=pipeline.layer_facts())
        path = os.path.join(OUT_DIR, f"trace-{name}.json")
        with open(path, "w") as handle:
            json.dump(trace_record, handle)
        # Derived from exactly what the file holds (its dict).
        metrics = derive(trace_record)
        table = layer_table(trace_record)
    else:
        with open(os.path.join(OUT_DIR, f"run-{name}.json"), "w") \
                as handle:
            json.dump(run_record, handle, indent=1)
    lines = [f"workload {name} seed {seed} scale {scale:g} "
             f"trace {int(trace)}"]
    lines += [f"{key:42s} {value:16.6f} {unit}"
              for key, (value, unit) in metrics.items()]
    for phase in ("setup", "ingest", "churn", "commit", "audit",
                  "restart"):
        units = pipeline.clock.phase_units(phase)
        if units:
            lines.append(
                f"phase {phase:8s} units {len(units):3d} "
                f"work {sum(u.work for u in units):7d} "
                f"wall {sum(u.wall for u in units):7.3f} s "
                f"nominal {sum(u.nominal for u in units):7.3f} s")
    if tracer is not None:
        lines += table
    spins = [u.spin_after for u in pipeline.clock.units]
    lines.append(f"spin median {sorted(spins)[len(spins) // 2] * 1e3:.2f} "
                 f"ms over {len(spins)} units; process "
                 f"{time.perf_counter() - STARTED:.1f} s so far")
    lines.append(f"attempted {json.dumps(tally.attempted)}")
    lines.append(f"failed    {json.dumps(tally.failed)}")
    lines += [f"note      {note}" for note in tally.notes]
    lines.append(f"negative_controls_fired {pipeline.controls_fired}/2")
    lines.append(f"log_head {pipeline.log_head} "
                 f"({pipeline.log_length} entries)")
    summary = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()}}
    return lines, summary


def stop_child_processes():
    """Stop, and wait for, every process this run started.

    The traced run's pool probe forks labeling workers, and their
    ``multiprocessing.shared_memory`` blocks start the stdlib's resource
    tracker, a helper process that otherwise outlives this one by the
    moment it takes to notice the closed pipe.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    # Closes the tracker's pipe and waits for it; nothing to do when it
    # was never started.  The stdlib has no public call for this.
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] +
                  (sys.argv[1:] if argv is None else list(argv)), env)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        lines, summary = run_workload(
            args.workload, seed=args.seed,
            scale=args.scale * args.seconds / REFERENCE_SECONDS,
            trace=bool(args.trace))
    finally:
        stop_child_processes()
    for line in lines:
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
