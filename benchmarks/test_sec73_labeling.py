"""E4 — §7.3 'Labeling time': sequential cost and worker speedup.

The paper labels its 22.3M-node MTT in 13.4 s with c=3 workers and
38.8 s with c=1 (speedup 2.9), concluding that labeling "is highly
scalable" and shorter commitment intervals just need more cores.  We
measure the serial kernel and the real shared-memory worker pool
relabeling the same tree at each width the box has cores for, and
report the speedup; with fewer cores than workers none is observable
and the check is skipped.  The paper's shape — workers beat serial —
is reported as an expected failure where it does not hold: on the
shared 2-vCPU box this pure-Python pool measures 0.67–1.29× at c=2,
median 1.06× (EXPERIMENTS.md E4), and no ≥4-core run exists yet.
(The deployment edits its retained tree before most rounds, where the
pool also pays a program install: ``benchmarks/bench_report.py`` measures that shape as
``churn_tree``.)
"""

import os

import pytest

from repro.harness.experiments import labeling_experiment
from repro.harness.reporting import render_table

N_PREFIXES = 2000
K = 50
WIDTHS = tuple(c for c in (2, 3) if c <= (os.cpu_count() or 1))


@pytest.fixture(scope="module")
def result():
    return labeling_experiment(n_prefixes=N_PREFIXES, k=K,
                               pool_workers=WIDTHS)


def test_labeling_time_and_speedup(benchmark, result, emit):
    # Benchmark the sequential labeling of a fresh tree.
    from repro.crypto.rc4 import Rc4Csprng
    from repro.mtt.labeling import label_tree
    from repro.mtt.tree import Mtt
    from repro.traces.workload import generate_prefixes
    entries = {p: [1] * K for p in generate_prefixes(N_PREFIXES, seed=7)}

    def label_fresh():
        return label_tree(Mtt.build(entries), Rc4Csprng(b"bench"))

    benchmark.pedantic(label_fresh, rounds=1, iterations=1)

    paper = {2: ("-", "-"), 3: (13.4, 2.9)}
    rows = [("c=1 hash phase (s)", 38.8, result.sequential_seconds)]
    for c in WIDTHS:
        rows.append((f"c={c} hash phase, same tree (s)", paper[c][0],
                     result.pool_seconds[c]))
        rows.append((f"speedup c={c}", paper[c][1],
                     result.pool_speedup(c)))
    rows.append(("hashes per labeling", "-", result.hash_count))
    emit(render_table(
        "§7.3 labeling time (paper: 22.3M nodes; here: "
        f"{N_PREFIXES} prefixes × {K} classes, "
        f"{os.cpu_count()} core(s))",
        ["quantity", "paper", "measured"], rows))

    if not WIDTHS:
        pytest.skip("one core: the worker pool cannot show a speedup")
    # Shape: on cores it actually has, the pool beats the serial hash
    # phase on a tree it has installed.
    slower = {c: round(result.pool_speedup(c), 2) for c in WIDTHS
              if result.pool_speedup(c) <= 1.0}
    if slower:
        pytest.xfail(f"pool did not beat serial on {os.cpu_count()} "
                     f"core(s): speedup by width {slower}")


def test_labeling_scales_linearly_in_prefixes(benchmark, emit):
    benchmark.pedantic(lambda: labeling_experiment(n_prefixes=200, k=5),
                       rounds=1, iterations=1)
    small = labeling_experiment(n_prefixes=500, k=10)
    large = labeling_experiment(n_prefixes=2000, k=10)
    ratio = large.sequential_seconds / small.sequential_seconds
    emit(render_table(
        "labeling scaling (k=10)",
        ["prefixes", "seconds"],
        [(500, small.sequential_seconds),
         (2000, large.sequential_seconds),
         ("ratio (expect ≈4)", ratio)]))
    assert 2.0 < ratio < 8.0
