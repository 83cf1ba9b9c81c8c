"""E4 — §7.3 'Labeling time': sequential cost and linear scaling.

The paper labels its 22.3M-node MTT in 13.4 s with c=3 workers and
38.8 s with c=1 (speedup 2.9), concluding that labeling "is highly
scalable" and shorter commitment intervals just need more cores.  We
measure the serial kernel's hash phase and how it scales with the
table.  The worker speedup is not reproduced in CPython: fifteen
readings of a warm shared-memory pool at c=2 against serial on the
hash phase read 0.67–1.29×, median 1.06× (EXPERIMENTS.md E4).
"""

import os

import pytest

from repro.harness.experiments import labeling_experiment
from repro.harness.reporting import render_table

N_PREFIXES = 2000
K = 50


@pytest.fixture(scope="module")
def result():
    return labeling_experiment(n_prefixes=N_PREFIXES, k=K)


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

    rows = [("c=1 hash phase (s)", 38.8, result.sequential_seconds),
            ("c=3 hash phase (s)", 13.4, "not reproduced in CPython"),
            ("hashes per labeling", "-", result.hash_count)]
    emit(render_table(
        "§7.3 labeling time (paper: 22.3M nodes; here: "
        f"{N_PREFIXES} prefixes × {K} classes, "
        f"{os.cpu_count()} core(s))",
        ["quantity", "paper", "measured"], rows))
    assert result.sequential_seconds > 0


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
