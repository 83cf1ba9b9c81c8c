"""Direct unit tests for the fault-injection primitives.

The campaign engine exercises these end to end; here each injector is
pinned in isolation so a regression points at the primitive, not at a
whole adversarial scenario.
"""

import pytest

from repro.bgp.prefix import Prefix
from repro.core.verdict import FaultKind
from repro.faults.adversaries import FEED_ASN, FILLER_PREFIX, GOOD_PREFIX
from repro.faults.injector import install_equivocation, \
    install_export_filter, install_export_leak, install_export_mutator, \
    install_import_filter, install_inbound_drop, shorten_as_path, \
    tamper_bit_proof, tamper_log_entry, tamper_proof_set
from repro.netreview.node import NetReviewDeployment
from repro.netsim.network import Network, TraceEvent
from repro.netsim.topology import FOCUS_AS, INJECTION_AS, \
    figure5_topology
from repro.spider.config import SpiderConfig
from repro.spider.log import EntryKind, TamperError
from repro.spider.node import SpiderDeployment
from repro.spider.wire import SpiderCommitment

OTHER_PREFIX = Prefix.parse("198.51.100.0/24")

_CONFIG = SpiderConfig(commit_interval=60.0)

SYSTEMS = ("spider", "netreview")


def build_system(system):
    """One network with one system deployed: (network, deployment,
    asn → recorder).  The installers take either system's recorder."""
    network = Network(figure5_topology())
    if system == "spider":
        deployment = SpiderDeployment(network, config=_CONFIG)
        recorders = {asn: node.recorder
                     for asn, node in deployment.nodes.items()}
    else:
        deployment = NetReviewDeployment(network, config=_CONFIG)
        recorders = deployment.recorders
    network.attach_feed(INJECTION_AS, feed_asn=FEED_ASN)
    return network, deployment, recorders


def build():
    network, deployment, _recorders = build_system("spider")
    return network, deployment


def good_route_workload(network):
    network.originate(9, GOOD_PREFIX)
    network.settle()


def logged_from(recorder, sender):
    return [entry for entry in recorder.log
            if entry.kind is EntryKind.RECV_ANNOUNCE and
            entry.payload.sender == sender]


# ----------------------------------------------------------------------
# install_inbound_drop, acknowledged: the stealthy recorder-side filter


def test_filtering_recorder_drops_but_still_acks():
    network, deployment = build()
    dropped = install_inbound_drop(
        deployment.node(FOCUS_AS).recorder, 7)
    good_route_workload(network)
    assert dropped, "the filtered announce was never seen"
    assert all(m.sender == 7 for m in dropped)
    # The stealthy part: AS 7 got its ACKs, so no T_max sweep fires.
    assert deployment.node(7).recorder.overdue_acks() == []
    assert deployment.sweep_overdue_acks() == []
    # And the committed view really is missing the route.
    commit = deployment.commit_now(FOCUS_AS)
    view = deployment.node(FOCUS_AS).view_at(commit.commit_time)
    assert GOOD_PREFIX not in view.imports.get(7, {})


def test_filtering_recorder_prefix_scoping():
    network, deployment = build()
    dropped = install_inbound_drop(
        deployment.node(FOCUS_AS).recorder, 7, prefixes={OTHER_PREFIX})
    good_route_workload(network)
    # Only OTHER_PREFIX (never announced) is in scope: nothing dropped.
    assert dropped == []


def test_filtering_recorder_respects_active_from():
    network, deployment = build()
    dropped = install_inbound_drop(
        deployment.node(FOCUS_AS).recorder, 7, active_from=1e9)
    good_route_workload(network)
    assert dropped == []


@pytest.mark.parametrize("system", SYSTEMS)
def test_acknowledged_drop_leaves_no_log_entry_but_clears_the_ack(
        system):
    network, deployment, recorders = build_system(system)
    dropped = install_inbound_drop(recorders[FOCUS_AS], 7)
    good_route_workload(network)
    assert dropped
    assert logged_from(recorders[FOCUS_AS], 7) == []
    network.run_until(network.sim.now + _CONFIG.ack_timeout + 2.0)
    assert recorders[7].overdue_acks() == []
    assert deployment.sweep_overdue_acks() == []


# ----------------------------------------------------------------------
# install_inbound_drop, silent: the §6.2 stonewall


def test_ack_withholding_trips_the_tmax_sweep():
    network, deployment = build()
    withheld = install_inbound_drop(
        deployment.node(FOCUS_AS).recorder, 7, acknowledge=False)
    good_route_workload(network)
    assert withheld, "nothing was withheld"
    network.run_until(network.sim.now + _CONFIG.ack_timeout + 2.0)
    records = deployment.sweep_overdue_acks()
    assert [(r.detector, r.accused, r.kind) for r in records] == \
        [(7, FOCUS_AS, FaultKind.MISSING_MESSAGE)]


@pytest.mark.parametrize("system", SYSTEMS)
def test_silent_drop_trips_overdue_acks_after_tmax(system):
    network, deployment, recorders = build_system(system)
    install_inbound_drop(recorders[FOCUS_AS], 7, acknowledge=False)
    good_route_workload(network)
    assert logged_from(recorders[FOCUS_AS], 7) == []
    assert recorders[7].overdue_acks() == []  # not yet: T_max is a wait
    network.run_until(network.sim.now + _CONFIG.ack_timeout + 2.0)
    assert {neighbor for _hash, neighbor in
            recorders[7].overdue_acks()} == {FOCUS_AS}
    records = deployment.sweep_overdue_acks()
    assert [(r.system, r.detector, r.accused, r.kind)
            for r in records] == \
        [(system, 7, FOCUS_AS, FaultKind.MISSING_MESSAGE)]


@pytest.mark.parametrize("system", SYSTEMS)
def test_inbound_drop_waits_for_active_from(system):
    network, deployment, recorders = build_system(system)
    dropped = install_inbound_drop(recorders[FOCUS_AS], 7,
                                   active_from=5.0, acknowledge=False)
    good_route_workload(network)            # all of it before t = 5
    assert dropped == []
    assert logged_from(recorders[FOCUS_AS], 7)
    network.schedule_fault(6.0, "late-origin",
                           lambda: network.originate(9, OTHER_PREFIX))
    network.settle()
    assert {m.prefix for m in dropped} == {OTHER_PREFIX}


# ----------------------------------------------------------------------
# install_equivocation


def test_equivocating_recorder_detected_by_lied_to_neighbor():
    network, deployment = build()
    install_equivocation(deployment.node(FOCUS_AS).recorder, {7})
    good_route_workload(network)
    deployment.commit_now(FOCUS_AS)
    network.settle()
    lied_to = deployment.node(7).detections
    assert any(r.kind is FaultKind.EQUIVOCATION and
               r.accused == FOCUS_AS for r in lied_to)
    # A neighbor that saw only one root has nothing to report.
    assert deployment.node(8).detections == []


@pytest.mark.parametrize("system", SYSTEMS)
def test_second_root_reaches_only_lie_to(system):
    network, _deployment, recorders = build_system(system)
    recorder = recorders[FOCUS_AS]
    install_equivocation(recorder, {7})
    good_route_workload(network)
    sent = []
    recorder.transport = lambda receiver, messages: sent.extend(
        (receiver, message) for message in messages)
    record = recorder.make_commitment()
    second = [(receiver, message) for receiver, message in sent
              if isinstance(message, SpiderCommitment) and
              message is not record.message]
    assert [receiver for receiver, _message in second] == [7]
    fake = second[0][1]
    assert fake.commit_time == record.commit_time
    assert fake.valid(recorder.registry)
    if system == "spider":
        honest = {receiver for receiver, message in sent
                  if message is record.message}
        assert {7, 8} <= honest
        assert fake.root != record.root


# ----------------------------------------------------------------------
# Composition: two recorder faults on one built recorder


def test_inbound_drop_and_equivocation_compose():
    """What no single subclass could express: AS 5 both loses AS 7's
    route and lies to AS 8 about its commitment — each victim detects
    its own fault."""
    network, deployment = build()
    recorder = deployment.node(FOCUS_AS).recorder
    install_inbound_drop(recorder, 7, prefixes={GOOD_PREFIX})
    install_equivocation(recorder, {8})
    install_import_filter(
        network.speaker(FOCUS_AS),
        lambda route, neighbor: neighbor == 7 and
        route.prefix == GOOD_PREFIX)
    good_route_workload(network)
    deployment.commit_now(FOCUS_AS)
    network.settle()
    assert any(r.kind is FaultKind.EQUIVOCATION and
               r.accused == FOCUS_AS
               for r in deployment.node(8).detections)
    assert deployment.node(7).detections == []
    outcomes = deployment.verify(FOCUS_AS, neighbors=[7])
    kinds = {v.kind for o in outcomes for v in o.report.verdicts}
    assert kinds & {FaultKind.MISSING_PROOF, FaultKind.FALSE_BIT}


# ----------------------------------------------------------------------
# Speaker-side injectors


def test_install_import_filter_really_drops_the_route():
    network, deployment = build()
    install_import_filter(
        network.speaker(FOCUS_AS),
        lambda route, neighbor: route.prefix == GOOD_PREFIX)
    good_route_workload(network)
    assert network.speaker(FOCUS_AS).best(GOOD_PREFIX) is None
    # Nothing to select means nothing to pass on to AS 8.
    assert network.speaker(8).received_from(FOCUS_AS,
                                            GOOD_PREFIX) is None


def test_install_export_filter_suppresses_one_neighbor():
    network, deployment = build()
    install_export_filter(
        network.speaker(FOCUS_AS),
        lambda route, neighbor: route.prefix == GOOD_PREFIX and
        neighbor == 8)
    good_route_workload(network)
    speaker = network.speaker(FOCUS_AS)
    assert speaker.best(GOOD_PREFIX) is not None
    assert speaker.advertised_to(8, GOOD_PREFIX) is None
    # Other neighbors still get the customer route (Gao-Rexford).
    assert speaker.advertised_to(4, GOOD_PREFIX) is not None


def test_install_export_leak_sends_provider_routes_upstream():
    def filler(network):
        network.schedule_trace(FEED_ASN, [
            TraceEvent(1.0, FILLER_PREFIX, (FEED_ASN, 4000, 4001)),
        ])
        network.settle()

    # Honest valley-free baseline: the provider-learned FILLER route
    # never goes back up to a provider.
    network, _deployment = build()
    filler(network)
    assert network.speaker(FOCUS_AS).best(FILLER_PREFIX) is not None
    assert network.speaker(FOCUS_AS).advertised_to(
        6, FILLER_PREFIX) is None

    network, _deployment = build()
    install_export_leak(network.speaker(FOCUS_AS))
    filler(network)
    assert network.speaker(FOCUS_AS).advertised_to(
        6, FILLER_PREFIX) is not None


def test_shorten_as_path_collapses_to_exporter_and_origin():
    network, deployment = build()
    install_export_mutator(
        network.speaker(FOCUS_AS),
        lambda route, neighbor: shorten_as_path(route)
        if route.prefix == GOOD_PREFIX else route)
    good_route_workload(network)
    # The true path 5-7-9 arrives at the provider as 5-9.
    received = network.speaker(4).received_from(FOCUS_AS, GOOD_PREFIX)
    assert received is not None
    assert received.as_path == (FOCUS_AS, 9)


def test_shorten_as_path_is_identity_on_short_paths():
    network, _deployment = build()
    good_route_workload(network)
    short = network.speaker(7).received_from(9, GOOD_PREFIX)
    assert short is not None and len(short.as_path) <= 2
    assert shorten_as_path(short) is short


# ----------------------------------------------------------------------
# Proof and log tampering


@pytest.fixture(scope="module")
def verified_world():
    network, deployment = build()
    good_route_workload(network)
    deployment.commit_now(FOCUS_AS)
    outcomes = deployment.verify(FOCUS_AS)
    assert deployment.all_clean(outcomes)
    return network, deployment, outcomes


def _an_outcome_with_producer_proofs(outcomes):
    for outcome in outcomes:
        if outcome.proofs.producer_proofs:
            return outcome
    raise AssertionError("no outcome carried producer proofs")


def test_tamper_bit_proof_flips_only_the_bit(verified_world):
    _network, deployment, outcomes = verified_world
    outcome = _an_outcome_with_producer_proofs(outcomes)
    prefix, message = next(iter(
        sorted(outcome.proofs.producer_proofs.items(), key=str)))
    signer = deployment.node(FOCUS_AS).recorder.signer
    tampered = tamper_bit_proof(signer, message)
    assert tampered.proof.bit == 1 - message.proof.bit
    assert tampered.proof.prefix == prefix
    assert tampered.proof.steps == message.proof.steps
    assert tampered.proof.blinding == message.proof.blinding
    # The lie is freshly signed: only Merkle arithmetic can expose it.
    assert tampered.valid(deployment.node(FOCUS_AS).recorder.registry)


def test_tamper_proof_set_scopes_to_the_prefix(verified_world):
    _network, deployment, outcomes = verified_world
    outcome = _an_outcome_with_producer_proofs(outcomes)
    prefix = next(iter(
        sorted(outcome.proofs.producer_proofs, key=str)))
    signer = deployment.node(FOCUS_AS).recorder.signer
    doctored = tamper_proof_set(signer, outcome.proofs, prefix)
    for p, message in doctored.producer_proofs.items():
        original = outcome.proofs.producer_proofs[p]
        if p == prefix:
            assert message.proof.bit != original.proof.bit
        else:
            assert message is original
    for p, messages in doctored.consumer_proofs.items():
        originals = outcome.proofs.consumer_proofs[p]
        if p != prefix:
            assert messages == originals


def test_tamper_log_entry_breaks_the_hash_chain():
    network, deployment = build()
    good_route_workload(network)
    deployment.commit_now(FOCUS_AS)
    log = deployment.node(FOCUS_AS).recorder.log
    log.verify_chain()  # sanity: intact before tampering
    tampered = tamper_log_entry(log, -1)
    assert tampered is list(log)[-1]
    with pytest.raises(TamperError):
        log.verify_chain()
