"""Seeded adversarial campaigns with a SPIDeR↔NetReview differential.

A *campaign* is one randomized-but-reproducible attack instance:

1. an attack class is chosen (round-robin over
   :data:`~repro.faults.adversaries.ATTACK_CLASSES`, so every class is
   exercised on every sweep),
2. a concrete :class:`~repro.faults.adversaries.AttackSpec` is sampled
   from a converged probe network with a generator seeded from
   ``f"{seed}:{index}"`` — the seed is recorded in every artifact and
   the schedule digest makes reproducibility checkable byte-for-byte,
3. the fault runs through a *faulty world* and the honest counterpart
   through a *control world*, each carrying BOTH SPIDeR and the
   NetReview baseline on the same netsim trace,
4. the differential oracle (:mod:`repro.faults.oracle`) asserts that
   the faulty world is detected by exactly the expected ASes with the
   expected fault kinds on each system, that the control world raises
   no detection and no alarm, and that SPIDeR's proofs reveal no
   third-party prefixes where NetReview disclosed the full log.

A *fixed* spec — the §7.4 functionality check is five of them,
:data:`~repro.faults.adversaries.SEC74_SPECS` — skips steps 1–2 and runs
through the same :func:`run_spec` from step 3 on.

Run it from the command line::

    python -m repro.faults.campaign --seed 0 --campaigns 20

which emits a JSON report (deterministic for a fixed seed) and exits
non-zero if any campaign found a problem.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from typing import Dict, List, Optional, Tuple

from ..crypto.hashing import digest
from ..netsim.network import Network
from ..netsim.topology import INJECTION_AS, figure5_topology
from ..obs import names
from ..obs.registry import get_registry
from ..spider.config import SpiderConfig
from ..spider.node import SpiderDeployment
from ..netreview.node import NetReviewDeployment
from ..core.verdict import DetectionRecord
from .adversaries import ATTACK_CLASSES, FEED_ASN, Adversary, \
    AttackSpec, DetectResult, World, adversary_for
from .oracle import PrivacyReport, check_clean, check_detections, \
    check_privacy

#: The simulation config every campaign world runs under.
_CONFIG = SpiderConfig(commit_interval=60.0)


def build_probe(adversary: Adversary) -> Network:
    """A converged plain-BGP network for position sampling."""
    network = Network(figure5_topology())
    network.attach_feed(INJECTION_AS, FEED_ASN)
    adversary.probe_workload(network)
    return network


def build_world(adversary: Adversary, spec: AttackSpec,
                faulty: bool) -> World:
    """One fresh network with both systems deployed and faults hooked."""
    network = Network(figure5_topology())
    scheme_config = adversary.scheme_config(network.topology)
    spider = SpiderDeployment(
        network, scheme=scheme_config.scheme,
        scheme_factory=scheme_config.scheme_factory,
        promise_factory=scheme_config.promise_factory,
        config=_CONFIG)
    netreview = NetReviewDeployment(
        network, scheme=scheme_config.scheme,
        scheme_factory=scheme_config.scheme_factory,
        promise_factory=scheme_config.promise_factory,
        config=_CONFIG)
    network.attach_feed(INJECTION_AS, FEED_ASN)
    world = World(faulty=faulty, network=network, spider=spider,
                  netreview=netreview)
    adversary.install(world, spec)
    return world


# ----------------------------------------------------------------------
# Serialization helpers (deterministic: no clocks, sorted keys)


def _record_json(record: DetectionRecord) -> Dict[str, object]:
    return {
        "system": record.system,
        "detector": record.detector,
        "accused": record.accused,
        "kind": record.kind.value,
        "source": record.source,
        "description": record.description,
    }


def _records_json(records: List[DetectionRecord]
                  ) -> List[Dict[str, object]]:
    return [_record_json(r) for r in sorted(
        records, key=lambda r: (r.system, r.detector, r.kind.value,
                                r.source, r.description))]


def _schedule_digest(payload: Dict[str, object]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return digest(blob.encode("utf-8")).hex()


def recorder_alarms(world: World) -> Dict[int, List[str]]:
    alarms: Dict[int, List[str]] = {}
    for asn in sorted(world.spider.nodes):
        texts = world.spider.nodes[asn].recorder.alarms
        if texts:
            alarms.setdefault(asn, []).extend(texts)
    for asn in sorted(world.netreview.recorders):
        texts = world.netreview.recorders[asn].alarms
        if texts:
            alarms.setdefault(asn, []).extend(texts)
    return alarms


def _by_system(records: List[DetectionRecord], system: str
               ) -> List[DetectionRecord]:
    return [r for r in records if r.system == system]


# ----------------------------------------------------------------------
# One campaign


def run_world(spec: AttackSpec, faulty: bool
              ) -> Tuple[World, DetectResult]:
    """Build one world for ``spec`` — the fault hooked in, or its
    honest counterpart — drive the workload and run detection."""
    adversary = adversary_for(spec)
    world = build_world(adversary, spec, faulty)
    adversary.drive(world, spec)
    return world, adversary.detect(world, spec)


def run_campaign(seed: int, index: int) -> Dict[str, object]:
    """Run campaign ``index`` of a sweep seeded with ``seed``: sample a
    spec, then :func:`run_spec` it.  Identical ``(seed, index)`` always
    produce an identical entry.
    """
    rng = random.Random(f"{seed}:{index}")
    adversary = ATTACK_CLASSES[index % len(ATTACK_CLASSES)]()
    spec = adversary.sample(build_probe(adversary), rng)
    if spec is None:
        return {
            "index": index, "seed": seed, "attack": adversary.name,
            "spec": None, "schedule_digest": "",
            "problems": [f"{adversary.name}: no realizable attack "
                         "position in the probe network"],
            "ok": False,
        }
    return run_spec(spec, seed=seed, index=index)


def run_spec(spec: AttackSpec, seed: Optional[int] = None,
             index: Optional[int] = None) -> Dict[str, object]:
    """Run one concrete spec — sampled by :func:`run_campaign` or fixed,
    like the §7.4 table — through a faulty world, a control world and
    the differential oracle.

    Returns a JSON-ready result entry; ``entry["ok"]`` is True iff the
    oracle found no problem.
    """
    registry = get_registry()
    started = time.perf_counter()
    adversary = adversary_for(spec)
    registry.counter(names.CAMPAIGN_RUNS_TOTAL,
                     attack=adversary.name).inc()

    problems: List[str] = []
    schedule: Dict[str, object] = {
        "index": index,
        "seed": seed,
        "attack": adversary.name,
        "spec": spec.to_json(),
        "workload_events": adversary.workload_events(spec),
    }
    entry = dict(schedule, schedule_digest=_schedule_digest(schedule))

    faulty_world, faulty = run_world(spec, faulty=True)
    problems.extend(faulty.problems)
    control_world, control = run_world(spec, faulty=False)
    problems.extend(control.problems)

    # --- The differential oracle --------------------------------------
    spider_exp, netreview_exp = adversary.expectations(faulty_world,
                                                       spec)
    for system, expectation in (("spider", spider_exp),
                                ("netreview", netreview_exp)):
        if expectation.detects and not expectation.must_detect:
            problems.append(
                f"{system}: fault produced no expected detector — the "
                "sampled campaign is vacuous")
    problems.extend(check_detections("spider", faulty.spider,
                                     spider_exp, spec.position))
    problems.extend(check_detections("netreview", faulty.netreview,
                                     netreview_exp, spec.position))
    if spec.accomplices and not faulty.discarded:
        problems.append(
            "collusion: accomplices produced no (discarded) evidence — "
            "the injected fault did not bite")
    if faulty.extras.get("violation_detectable"):
        problems.append(
            "collusion: §4.6 predicts guaranteed detection for this "
            "instance, but the campaign models it as maskable")

    problems.extend(check_clean(
        _by_system(control.spider + control.discarded, "spider"),
        _by_system(control.netreview + control.discarded, "netreview"),
        recorder_alarms(control_world)))

    privacy: Optional[PrivacyReport] = None
    if adversary.privacy_check and control.outcomes and \
            control.audit_reports:
        privacy, privacy_problems = check_privacy(
            control_world.spider, spec.position, control.outcomes,
            control.audit_reports)
        problems.extend(privacy_problems)
        registry.histogram(names.CAMPAIGN_DISCLOSED_BYTES,
                           attack=adversary.name).observe(
            privacy.netreview_disclosed_bytes)

    # --- Metrics ------------------------------------------------------
    for system, records in (("spider", faulty.spider),
                            ("netreview", faulty.netreview)):
        if records:
            registry.counter(names.CAMPAIGN_DETECTIONS_TOTAL,
                             attack=adversary.name,
                             system=system).inc(len(records))
    false_positives = len(control.spider) + len(control.netreview)
    if false_positives:
        registry.counter(names.CAMPAIGN_FALSE_POSITIVES_TOTAL,
                         attack=adversary.name).inc(false_positives)
    registry.histogram(names.CAMPAIGN_SECONDS,
                       attack=adversary.name).observe(
        time.perf_counter() - started)

    entry.update({
        "spider_detections": _records_json(faulty.spider),
        "netreview_detections": _records_json(faulty.netreview),
        "discarded": _records_json(faulty.discarded),
        "privacy": privacy.to_json() if privacy is not None else None,
        "extras": dict(sorted(faulty.extras.items())),
        "problems": problems,
        "ok": not problems,
    })
    return entry


# ----------------------------------------------------------------------
# Sweeps


def run_suite(seed: int, campaigns: int) -> Dict[str, object]:
    """Run ``campaigns`` campaigns and aggregate the report."""
    results = [run_campaign(seed, index) for index in range(campaigns)]
    total_problems = sum(len(r["problems"])  # type: ignore[arg-type]
                        for r in results)
    return {
        "seed": seed,
        "campaigns": campaigns,
        "attack_classes": [cls().name for cls in ATTACK_CLASSES],
        "results": results,
        "total_problems": total_problems,
        "ok": all(bool(r["ok"]) for r in results),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.campaign",
        description="Run seeded adversarial campaigns through SPIDeR "
                    "and the NetReview baseline and check the "
                    "differential detection/privacy oracle.")
    parser.add_argument("--seed", type=int, default=0,
                        help="sweep seed (recorded in every artifact)")
    parser.add_argument("--campaigns", type=int, default=20,
                        help="number of campaigns to run")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the JSON report to this file")
    args = parser.parse_args(argv)
    report = run_suite(args.seed, args.campaigns)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return 0 if bool(report["ok"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
