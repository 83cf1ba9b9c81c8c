"""E7 — §7.4 'Functionality check': the injected-fault matrix.

The paper injects three faults at AS 5 and reports that each was
detected by one of the ASes: the over-aggressive filter by the upstream
AS (missing bit proof), the wrongly exported route by the downstream AS
(1-proof for the null route), and the tampered bit proof by the
downstream AS (proof/commitment mismatch); the clean run reports no
broken promises.

Each row is one world of a fixed campaign spec
(:data:`repro.faults.adversaries.SEC74_SPECS`): a fault row is the
spec's faulty world, an honest row its control world.
"""

import pytest

from repro.core.verdict import FaultKind
from repro.faults.adversaries import SEC74_SPECS
from repro.faults.campaign import run_world
from repro.harness.reporting import render_table

ROWS = [
    # (scenario, spec, faulty world?, should_detect, paper's description)
    ("clean-baseline", "overaggressive-filter", False, False,
     "no broken promises reported"),
    ("overaggressive-filter", "overaggressive-filter", True, True,
     "upstream AS: no bit proof for its route"),
    ("wrongly-exporting", "wrongly-exporting", True, True,
     "downstream AS: 1-proof for ⊥ above its route"),
    ("tampered-bit-proof", "tampered-bit-proof", True, True,
     "downstream AS: proof/commitment mismatch"),
    ("wrongly-exporting-fixed", "wrongly-exporting", False, False,
     "(honest counterpart)"),
    ("equivocating-commitments", "equivocating-commitments", True, True,
     "INVALIDCOMMIT cross-check"),
]


def detectors(spec_name, faulty):
    """SPIDeR detector AS → fault kinds, for one world of one spec."""
    _world, result = run_world(SEC74_SPECS[spec_name], faulty)
    found = {}
    for record in result.spider:
        found.setdefault(record.detector, set()).add(record.kind)
    return found


@pytest.fixture(scope="module")
def results():
    return {name: detectors(spec_name, faulty)
            for name, spec_name, faulty, _expected, _text in ROWS}


def test_functionality_matrix(benchmark, results, emit):
    benchmark.pedantic(detectors, args=("overaggressive-filter", False),
                       rounds=1, iterations=1)
    rows = []
    for name, _spec, _faulty, expected, _description in ROWS:
        found = ", ".join(
            f"AS{asn}:{'/'.join(sorted(k.value for k in kinds))}"
            for asn, kinds in sorted(results[name].items())) or "-"
        rows.append((name, "yes" if expected else "no",
                     "yes" if results[name] else "no", found))
    emit(render_table(
        "§7.4 functionality check",
        ["scenario", "paper detects", "measured", "detectors"], rows))
    for name, _spec, _faulty, expected, _description in ROWS:
        assert bool(results[name]) == expected, name


def test_detector_identities_match_paper(benchmark, results):
    benchmark(lambda: None)
    # Fault 1: the upstream AS (the producer of the filtered route).
    assert 7 in results["overaggressive-filter"]
    # Fault 2: downstream ASes.
    assert set(results["wrongly-exporting"]) & {7, 8}
    assert all(FaultKind.BROKEN_PROMISE in kinds for kinds in
               results["wrongly-exporting"].values())
    # Fault 3: the downstream AS that got the tampered proof.
    assert FaultKind.INVALID_PROOF in results["tampered-bit-proof"][8]
