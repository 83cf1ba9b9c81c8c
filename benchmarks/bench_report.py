"""Machine-readable commitment-path benchmark: the serial commit gate.

Measures the serial MTT labeling kernel
(:func:`repro.mtt.labeling.label_tree`) and writes ``BENCH_commit.json``
at the repo root so regressions are diffable.  Three traffic shapes:

* ``fresh_tree`` — a new ``Mtt.build`` for every round, which is what
  the proof generator does for a reconstruction: every round pays the
  schedule;
* ``same_tree`` — one tree object relabeled with new randomness: the
  schedule is reused.  The floor a retained tree can reach;
* ``churn_tree`` — what the recorder does: one retained tree, and
  before every round ``CHURN_SHARE`` of its prefixes get new bits
  (``set_bits``), one prefix is inserted and one removed, so every
  round pays the edits and a schedule rebuild.  Every round's root is
  checked against a from-scratch ``Mtt.build`` + labeling of the same
  entries.

Each row reports the whole labeling call (``round_seconds``: schedule,
CSPRNG draw, hash pass) and its hash phase alone (``hash_seconds``).
Also: ``cores``, a ``trajectory`` block — the named snapshots of the
committed ``BENCH_commit.json``, carried forward, plus this run as
``current`` — and the proof generator's reconstruction-cache hit rate.
The CSPRNG draw runs on whichever RC4 engine is present (the C ARC4 of
``cryptography`` for every seed here, else the pure-Python one): same
roots, different round times.  End-to-end and per-layer costs are
``benchmarks/e2e``'s; this file gates the labeling kernel alone.

CI runs ``--quick --check-against BENCH_commit.json``: a fast pass that
fails if (a) serial same-tree cost per node regresses back to the seed
baseline (ns/node is box-sensitive but the seed ran on a
comparable-or-faster box, so this is a loose no-regression floor),
(b) a fresh tree's roots differ from the same tree's, or a
``churn_tree`` round's from the from-scratch build's, or (c) a
``churn_tree`` round costs more than ``CHURN_BOUND`` × relabeling the
same tree unedited, measured alternately in the same row — the
retained tree's promise, a same-box comparison.  ``fresh_tree``'s
time is not gated.  Quick mode writes no files.

Run with ``PYTHONPATH=src python benchmarks/bench_report.py``.
"""

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.crypto.rc4 import Rc4Csprng  # noqa: E402
from repro.harness.experiments import run_replay_experiment  # noqa: E402
from repro.mtt.labeling import label_tree  # noqa: E402
from repro.mtt.tree import Mtt  # noqa: E402
from repro.obs.export import snapshot  # noqa: E402
from repro.obs.registry import Registry, use_registry  # noqa: E402
from repro.traces.workload import generate_prefixes  # noqa: E402

N_PREFIXES = 2000
K = 50
ROUNDS = 3
#: Per-round CSPRNG seeds; the first is the one whose root on the full
#: workload, a4254237…, has been this file's ``golden_root`` since PR 9.
SEEDS = (b"bench-pool", b"bench-1", b"bench-2")

#: ``churn_tree``: share of the table whose bits change before each
#: round (the order of the e2e ``table_commit`` workload's churn), and
#: how much more than a ``same_tree`` round such a round may cost on
#: the serial kernel.  The edits and the schedule rebuild are a fixed
#: cost over a relabel that the C keystream made ~3x cheaper: they read
#: 1.08-1.18 x at 600 x 50 on 2 vCPUs (1.15 was set when the draw was
#: two thirds of a relabel), while rebuilding the tree every round
#: instead of editing it reads 1.84 x there and 2.5 x at 2 000 x 50.
CHURN_SHARE = 0.003
CHURN_BOUND = 1.3
#: Rounds of the ``churn_tree`` row: on a shared
#: box best-of-3 reads 1.11-1.25 for a ratio that best-of-8 puts at
#: 1.08-1.14 (six runs each, 600 x 50, pure-Python draw).
CHURN_ROUNDS = 8

#: Measured at the seed commit on this machine, same workload and box.
SEED_BASELINE = {
    "label_total_seconds": 1.052,
    "label_ns_per_node": 6275.8,
}

def build_entries(n_prefixes: int, k: int) -> dict:
    return {p: [1] * k for p in generate_prefixes(n_prefixes, seed=7)}


def timing_row(walls: list, reports: list, tree: Mtt) -> dict:
    """What every shape reports about its best round."""
    best = min(range(len(walls)), key=walls.__getitem__)
    return {
        "round_seconds": round(walls[best], 4),
        "hash_seconds": round(min(r.seconds for r in reports), 4),
        "ns_per_node": round(
            walls[best] / tree.census().total * 1e9, 1),
    }


def measure(entries: dict, rounds: int, fresh: bool) -> dict:
    """Best-of-``rounds`` labeling on one traffic shape.

    ``fresh`` builds a new tree for every round (outside the timed
    region: ``Mtt.build`` costs the same on every row); otherwise one
    tree is labeled once untimed — building its schedule — and then
    relabeled.  Every row draws round ``i`` from ``SEEDS[i]``, so roots
    are comparable across rows.
    """
    tree = Mtt.build(entries)
    if not fresh:
        label_tree(tree, Rc4Csprng(b"warm-up"))
    walls, reports = [], []
    for i in range(rounds):
        if fresh:
            tree = Mtt.build(entries)
        start = time.perf_counter()
        reports.append(label_tree(tree, Rc4Csprng(SEEDS[i])))
        walls.append(time.perf_counter() - start)
    return dict(timing_row(walls, reports, tree),
                roots=[r.root_label.hex() for r in reports])


def measure_churn(entries: dict, rounds: int) -> dict:
    """Best-of-``rounds`` on one retained tree that is edited before
    every round; the timed region is the edits plus the labeling call.

    The edits are a function of the round number alone, so every run
    labels the same sequence of tables.  After each round the entries
    are built and labeled from scratch (untimed) and the roots
    compared: the edited tree must be the built tree.  Each round is
    preceded by a timed relabel of the tree as it stands, so
    ``vs_same_tree`` compares neighbours in time, not two phases of a
    run on a shared box.
    """
    current = dict(entries)
    spare = [p for p in generate_prefixes(len(entries) + 64, seed=11)
             if p not in current]
    tree = Mtt.build(current)
    label_tree(tree, Rc4Csprng(b"warm-up"))
    unedited, walls, reports, matches = [], [], [], []
    for i in range(rounds):
        rng = random.Random(i)
        known = sorted(current)
        gone, new = rng.choice(known), spare[i]
        touched = [p for p in rng.sample(
            known, max(1, round(CHURN_SHARE * len(known)))) if p != gone]
        start = time.perf_counter()
        label_tree(tree, Rc4Csprng(b"unedited"))
        unedited.append(time.perf_counter() - start)
        start = time.perf_counter()
        for prefix in touched:
            bits = [(i + j) & 1 for j in range(len(current[prefix]))]
            tree.set_bits(prefix, bits)
            current[prefix] = bits
        tree.remove(gone)
        tree.insert(new, current[gone])
        reports.append(label_tree(tree, Rc4Csprng(SEEDS[i % len(SEEDS)])))
        walls.append(time.perf_counter() - start)
        current[new] = current.pop(gone)
        matches.append(reports[-1].root_label == label_tree(
            Mtt.build(current),
            Rc4Csprng(SEEDS[i % len(SEEDS)])).root_label)
    return dict(timing_row(walls, reports, tree),
                vs_same_tree=round(min(walls) / min(unedited), 3),
                edits_per_round={"set_bits": len(touched), "insert": 1,
                                 "remove": 1},
                root_matches_scratch=all(matches))


def measure_all(entries: dict, rounds: int) -> dict:
    """The serial kernel on all three shapes.

    The fresh-tree roots are checked against the same-tree roots of
    the same round seeds, so the byte-identical-roots criterion is
    checked *in the benchmark*, not just in tests.
    """
    fresh = measure(entries, rounds, fresh=True)
    same = measure(entries, rounds, fresh=False)
    golden = same.pop("roots")
    same["speedup_vs_seed"] = round(
        SEED_BASELINE["label_total_seconds"] / same["round_seconds"], 2)
    fresh["root_matches_same_tree"] = fresh.pop("roots") == golden
    serial = {"fresh_tree": fresh, "same_tree": same,
              "churn_tree": measure_churn(entries, CHURN_ROUNDS)}
    return {"golden_root": golden[0], "serial": serial}


def measure_cache_hit_rate(neighbors: int = 8) -> float:
    replay = run_replay_experiment(scale=0.002, k=10)
    from repro.netsim.topology import FOCUS_AS
    node = replay.deployment.node(FOCUS_AS)
    gen = node.proofgen
    gen.cache_hits = gen.cache_misses = 0
    gen._cache.clear()
    commit_time = node.recorder.commitments[-1].commit_time
    for _ in range(neighbors):  # one reconstruction request per neighbor
        gen.reconstruct(commit_time)
    node.close()
    return gen.cache_hit_rate


def committed_history(path: str) -> dict:
    """The committed report's trajectory without its ``current`` run:
    the named snapshots every regeneration keeps."""
    try:
        with open(path) as handle:
            trajectory = json.load(handle).get("trajectory", {})
    except FileNotFoundError:
        return {}
    return {name: run for name, run in trajectory.items()
            if name != "current"}


def check_against(report: dict, path: str) -> int:
    """The CI bench-smoke gate; returns a process exit status.

    Machine-robust checks, each comparing like with like:

    * serial guard — same-tree ns/node must stay below the committed
      seed baseline (the measurement this repo started from, taken on
      that shape; being slower means the optimization work regressed
      outright);
    * roots guard — the fresh-tree rounds produced the same-tree roots,
      and every ``churn_tree`` round the root of the from-scratch build
      of the entries it had been edited to;
    * churn guard — a ``churn_tree`` round (edits, a schedule rebuild,
      the labeling) costs at most ``CHURN_BOUND`` × a relabel of the
      same tree without edits, the two measured alternately in one row.
      If this fails the retained tree has stopped paying for itself.
    """
    with open(path) as handle:
        committed = json.load(handle)
    seed_floor = committed["seed_baseline"]["label_ns_per_node"]
    serial = report["serial"]
    measured_ns = serial["same_tree"]["ns_per_node"]
    serial_ok = measured_ns <= seed_floor
    roots_ok = serial["fresh_tree"]["root_matches_same_tree"] and \
        serial["churn_tree"]["root_matches_scratch"]
    churn_ratio = serial["churn_tree"]["vs_same_tree"]
    churn_ok = churn_ratio <= CHURN_BOUND
    verdict = {
        "serial_same_tree_ns_per_node": measured_ns,
        "seed_baseline_ns_per_node": seed_floor,
        "serial_ok": serial_ok,
        "roots_ok": roots_ok,
        "serial_churn_vs_same_tree": churn_ratio,
        "churn_bound": CHURN_BOUND,
        "churn_ok": churn_ok,
        "ok": serial_ok and roots_ok and churn_ok,
    }
    print(json.dumps({"check_against": verdict}, indent=2))
    if not serial_ok:
        print(f"FAIL: serial same-tree {measured_ns:.1f} ns/node "
              f"regressed past the seed baseline {seed_floor:.1f}",
              file=sys.stderr)
    if not roots_ok:
        print("FAIL: a fresh tree's root differs from the same tree's, "
              "or an edited tree's from the from-scratch build's",
              file=sys.stderr)
    if not churn_ok:
        print(f"FAIL: a serial churn-tree round costs {churn_ratio} x a "
              f"same-tree round (bound {CHURN_BOUND}) — editing the "
              "retained tree no longer beats rebuilding it",
              file=sys.stderr)
    return 0 if verdict["ok"] else 1


def main() -> None:
    parser = argparse.ArgumentParser(
        description="commitment-path benchmark")
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced workload and rounds, no cache measurement, no "
             "file writes — the CI smoke configuration")
    parser.add_argument(
        "--check-against", metavar="PATH",
        help="verify the serial-floor, roots and churn guards against "
             "a committed BENCH_commit.json (exit 1 on regression)")
    args = parser.parse_args()
    committed = os.path.join(os.path.dirname(__file__), "..",
                             "BENCH_commit.json")
    if args.quick:
        n_prefixes, k, rounds = 600, 50, 2
    else:
        n_prefixes, k, rounds = N_PREFIXES, K, ROUNDS

    # The whole run reports into a fresh obs registry, whose snapshot is
    # written next to the BENCH json for cost attribution
    # (``python -m repro.obs.dump --snapshot BENCH_commit_obs.json``).
    with use_registry(Registry()) as registry:
        entries = build_entries(n_prefixes, k)
        census = Mtt.build(entries).census()
        report = {
            "workload": {
                "n_prefixes": n_prefixes,
                "k": k,
                "nodes_total": census.total,
                "hashes_per_round":
                    census.bit + census.prefix + census.inner,
                "rounds": rounds,
            },
            "cores": os.cpu_count(),
            "seed_baseline": SEED_BASELINE,
            **measure_all(entries, rounds),
        }
        report["trajectory"] = dict(
            committed_history(committed),
            current={
                f"serial_{shape}_seconds":
                    report["serial"][shape]["round_seconds"]
                for shape in ("fresh_tree", "same_tree", "churn_tree")})
        if not args.quick:
            report["proofgen_cache_hit_rate"] = round(
                measure_cache_hit_rate(), 4)
        obs_snapshot = snapshot(registry)

    status = 0
    if args.check_against:
        status = check_against(report, args.check_against)
    if not args.quick:
        with open(committed, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        with open(os.path.join(os.path.dirname(committed),
                               "BENCH_commit_obs.json"), "w") as handle:
            json.dump(obs_snapshot, handle, indent=2)
            handle.write("\n")
    json.dump(report, sys.stdout, indent=2)
    print()
    sys.exit(status)


if __name__ == "__main__":
    main()
