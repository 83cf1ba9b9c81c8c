"""The §7.4 functionality checks as tests: every fault is detected by
the right party, and the clean runs stay clean.

Each check is one fixed :class:`~repro.faults.adversaries.AttackSpec`
at AS 5 (:data:`~repro.faults.adversaries.SEC74_SPECS`) run through the
campaign engine: ``run_spec`` gives the oracle's verdict on the faulty
and control worlds together, ``run_world`` gives one world's raw
detections.  The control world of any spec is the paper's clean run;
the control world of ``wrongly-exporting`` is its fixed-policy run.
"""

import pytest

from repro.core.verdict import FaultKind
from repro.faults.adversaries import SEC74_SPECS
from repro.faults.campaign import recorder_alarms, run_spec, run_world
from repro.obs.registry import Registry, use_registry


def detectors(entry):
    """SPIDeR detector AS → the fault kinds it reported."""
    found = {}
    for record in entry["spider_detections"]:
        found.setdefault(record["detector"], set()).add(
            FaultKind(record["kind"]))
    return found


@pytest.fixture(scope="module")
def entries():
    return {name: run_spec(spec) for name, spec in SEC74_SPECS.items()}


@pytest.fixture(scope="module")
def faulty(entries):
    return {name: detectors(entry) for name, entry in entries.items()}


@pytest.fixture(scope="module")
def controls():
    return {name: run_world(spec, faulty=False)
            for name, spec in SEC74_SPECS.items()}


def test_there_are_five_fixed_specs_all_at_as5():
    assert len(SEC74_SPECS) == 5
    assert {spec.position for spec in SEC74_SPECS.values()} == {5}


class TestCleanBaseline:
    def test_no_detection(self, controls):
        for name, (_world, result) in controls.items():
            assert result.spider == [], name
            assert result.netreview == [], name
            assert result.discarded == [], name

    def test_no_alarm(self, controls):
        for name, (world, _result) in controls.items():
            assert recorder_alarms(world) == {}, name

    def test_all_neighbors_checked(self, controls):
        _world, result = controls["overaggressive-filter"]
        assert len(result.outcomes) == 5
        assert all(outcome.report.ok for outcome in result.outcomes)


class TestOveraggressiveFilter:
    """Fault 1: 'the upstream AS raised an alarm because it did not
    receive a bit proof for the route it had supplied'."""

    def test_detected(self, faulty):
        assert faulty["overaggressive-filter"]

    def test_upstream_as_detects(self, faulty):
        assert 7 in faulty["overaggressive-filter"]

    def test_detection_is_about_the_missing_input(self, faulty):
        kinds = faulty["overaggressive-filter"][7]
        assert kinds & {FaultKind.MISSING_PROOF, FaultKind.FALSE_BIT}

    def test_downstreams_do_not_false_alarm(self, faulty):
        # Consumers see a consistent (if degraded) world; the producer is
        # the designated detector for this fault.
        for neighbor, kinds in faulty["overaggressive-filter"].items():
            if neighbor != 7:
                assert FaultKind.BROKEN_PROMISE not in kinds

    def test_netreview_cross_check_sees_the_swallowed_message(
            self, entries):
        found = {(r["detector"], r["kind"]) for r in
                 entries["overaggressive-filter"]["netreview_detections"]}
        assert (7, FaultKind.MISSING_MESSAGE.value) in found


class TestWronglyExporting:
    """Fault 2: 'the downstream AS noticed that it had a bit proof for
    the null route, which was better than the route it had actually
    received'."""

    def test_detected(self, faulty):
        assert faulty["wrongly-exporting"]

    def test_downstream_ases_detect(self, faulty):
        assert set(faulty["wrongly-exporting"]) & {7, 8}

    def test_kind_is_broken_promise(self, faulty):
        for kinds in faulty["wrongly-exporting"].values():
            assert FaultKind.BROKEN_PROMISE in kinds

    def test_fixed_policy_is_clean(self, controls):
        world, result = controls["wrongly-exporting"]
        assert result.spider == [] and result.netreview == []
        assert recorder_alarms(world) == {}


class TestTamperedBitProof:
    """Fault 3: 'the downstream AS detected that the proof did not match
    the hash value from the commitment'."""

    def test_detected(self, faulty):
        assert faulty["tampered-bit-proof"]

    def test_tampered_recipient_sees_invalid_proof(self, faulty):
        assert FaultKind.INVALID_PROOF in faulty["tampered-bit-proof"][8]

    def test_untampered_recipients_stay_silent(self, faulty):
        assert set(faulty["tampered-bit-proof"]) == {8}


class TestEquivocation:
    def test_detected(self, faulty):
        assert faulty["equivocating-commitments"]

    def test_lied_to_neighbor_detects_on_receipt(self, faulty):
        assert faulty["equivocating-commitments"] == \
            {8: {FaultKind.EQUIVOCATION}}

    def test_multiple_neighbors_can_prove_it(self, entries):
        # The VERIFY cross-check pairs two neighbors' differing copies
        # into a transferable, validly signed PoM.
        extras = entries["equivocating-commitments"]["extras"]
        assert extras["equivocation_poms"] >= 1

    def test_netreview_has_nothing_to_see(self, entries):
        assert entries["equivocating-commitments"][
            "netreview_detections"] == []


class TestAckWithholding:
    """§6.2: a stonewalled sender's T_max timeout trips — on both
    systems, since they share the substrate."""

    def test_victim_times_out_on_both_systems(self, entries):
        entry = entries["ack-withholding"]
        for key in ("spider_detections", "netreview_detections"):
            assert {(r["detector"], r["kind"]) for r in entry[key]} == \
                {(7, FaultKind.MISSING_MESSAGE.value)}

    def test_each_system_counts_its_own_retries(self):
        """Both systems run a runtime on AS 7; NetReview's series carry
        ``system="netreview"`` and SPIDeR's keep their labels, so each
        reads its own 4 retries rather than the sum."""
        with use_registry(Registry()) as registry:
            run_world(SEC74_SPECS["ack-withholding"], faulty=True)
        at_as7 = [(metric, dict(metric.labels))
                  for metric in registry.metrics()
                  if dict(metric.labels).get("node") == "as7"]
        retries = {labels.get("system", "spider"): metric.value
                   for metric, labels in at_as7
                   if metric.name == "delivery_retries_total"}
        assert retries == {"spider": 4, "netreview": 4}
        systems = {(metric.name, labels.get("system", "spider"))
                   for metric, labels in at_as7}
        for name in ("runtime_inbox_depth", "delivery_tracked_total",
                     "transport_frames_sent_total", "cpu_seconds_total",
                     "signatures_made_total"):
            assert {(name, "spider"), (name, "netreview")} <= systems


class TestAllFaultsDetectedExactlyLikeThePaper:
    def test_summary(self, faulty, controls):
        """The §7.4 headline: 'in each case the fault was detected by
        one of the ASes'."""
        for name in ("overaggressive-filter", "wrongly-exporting",
                     "tampered-bit-proof"):
            assert faulty[name], f"{name} went undetected"
        for name, (_world, result) in controls.items():
            assert not result.spider, f"{name} control false-positived"

    def test_the_oracle_agrees(self, entries):
        """Same entry shape and same differential oracle as a sampled
        campaign: expected detectors and kinds on both systems, control
        world silent and alarm-free, nobody else accused."""
        for name, entry in entries.items():
            assert entry["ok"], (name, entry["problems"])
            assert entry["seed"] is None and entry["index"] is None
            assert all(r["accused"] == 5
                       for r in entry["spider_detections"] +
                       entry["netreview_detections"])
