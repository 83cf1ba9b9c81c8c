"""E5/E6 — §7.3 'Proof generation and proof size' / 'Proof checking'.

Paper numbers for AS 5's last commitment: 13.4 s to reconstruct the MTT
(our row: the §6.5 rebuild from the log; the latest commitment itself is
served from the recorder's retained tree, a row of its own),
70.2 s to generate proofs for five neighbors, average proof set 449 MB;
the single-prefix 'shortest route to Google' promise instead takes
0.431 s and 2.1 KB per side.  Checking one proof set averages 27 s, of
which ~26 s is rebuilding/re-labeling the proof's MTT part.

Shape assertions: full proof sets scale with table size while the
single-prefix set stays KB-scale and orders of magnitude smaller; proof
sets verify; checking is dominated by Merkle recomputation.
"""

import pytest

from repro.harness.reporting import format_bytes, render_table
from repro.netsim.topology import FOCUS_AS


def test_proof_generation_and_size(benchmark, replay, proofs, emit):
    node5 = replay.deployment.node(FOCUS_AS)
    record = node5.recorder.commitments[-1]

    def rebuild():
        return node5.proofgen.rebuild(record.commit_time)

    rebuilt = benchmark.pedantic(rebuild, rounds=1, iterations=1)
    served = node5.proofgen.reconstruct(record.commit_time)
    assert served.tree is node5.recorder.committed_tree(record.commit_time)
    assert rebuilt.root == served.root == record.root
    assert proofs.rebuild_seconds > 0

    avg_bytes = proofs.average_proof_set_bytes()
    rows = [
        ("MTT reconstruction (s)", 13.4, proofs.rebuild_seconds),
        ("latest commitment, retained tree (s)", "-",
         proofs.reconstruct_seconds),
        ("proof generation, 5 neighbors (s)", 70.2,
         proofs.generation_seconds),
        ("average proof set size", "449 MB", format_bytes(avg_bytes)),
        ("single-prefix generation (s)", 0.431,
         proofs.single_prefix_seconds),
        ("single-prefix proof size", "2.1 KB",
         format_bytes(proofs.single_prefix_bytes)),
    ]
    emit(render_table(
        f"§7.3 proof generation (scale {replay.scale}, k={replay.k})",
        ["quantity", "paper", "measured"], rows))

    # Shape: the single-prefix promise is drastically cheaper than the
    # full-table promise, in both time and bytes (paper: 5 orders of
    # magnitude in size; ours scales with the smaller table).
    assert proofs.single_prefix_bytes < avg_bytes / 20
    assert proofs.single_prefix_seconds < \
        max(proofs.generation_seconds, 1e-9)
    # Per-proof size ≈ 20·k bytes plus path hashes (§7.3).
    per_proof = avg_bytes / max(
        1, sum(proofs.per_neighbor_count.values()) /
        len(proofs.per_neighbor_count))
    assert per_proof > 20 * replay.k


def test_proof_checking(benchmark, replay, proofs, emit):
    """Re-check one neighbor's proof set as the benchmark body."""
    deployment = replay.deployment
    node5 = deployment.node(FOCUS_AS)
    record = node5.recorder.commitments[-1]
    reconstruction = node5.proofgen.reconstruct(record.commit_time)
    neighbor = 7
    proof_set = node5.proofgen.proofs_for(reconstruction, neighbor)
    node7 = deployment.node(neighbor)
    commitment = node7.commitment_from(FOCUS_AS, record.commit_time) or \
        record.message
    view = node7.view_at(record.commit_time)

    def check():
        return node7.checker.check(
            commitment, proof_set,
            my_exports_to_elector=view.exports.get(FOCUS_AS, {}),
            my_imports_from_elector=view.imports.get(FOCUS_AS, {}),
            promise=node5.recorder.promises.get(neighbor),
            elector_scheme=node5.recorder.scheme)

    report = benchmark.pedantic(check, rounds=1, iterations=1)
    assert report.ok

    rows = [("check one proof set (s)", 27.0, report.check_seconds),
            ("proofs checked", "-", report.proofs_checked)]
    for n, seconds in sorted(proofs.check_seconds.items()):
        rows.append((f"neighbor AS{n} check (s)", "-", seconds))
    emit(render_table(
        "§7.3 proof checking",
        ["quantity", "paper", "measured"], rows))

    assert proofs.checks_ok
    # Shape: checking cost tracks the number of proofs (every proof is a
    # Merkle-path recomputation).
    assert report.proofs_checked == proof_set.proof_count()
