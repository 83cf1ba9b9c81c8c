"""Fault injection, one vocabulary: ``install_*`` primitives that make a
built speaker or recorder misbehave, attack classes that compose them
into :class:`AttackSpec` instances — sampled for seeded campaigns, or
fixed for the §7.4 functionality check (:data:`SEC74_SPECS`) — and the
differential SPIDeR↔NetReview oracle every spec runs through
(``python -m repro.faults.campaign``)."""

from .adversaries import ATTACK_CLASSES, SEC74_SPECS, SECRET_ORIGIN, \
    AckWithholdingAdversary, Adversary, AttackSpec, CollusionAdversary, \
    DetectResult, EquivocationAdversary, InterceptionAdversary, \
    LeakPromises, ProofTamperAdversary, RouteDropAdversary, \
    RouteLeakAdversary, World, WrongfulExportAdversary, adversary_for, \
    selective_export_scheme_for_spider, standard_workload
# The campaign runner (.campaign) is a CLI module and is deliberately
# not imported here, like obs.dump and store.inspect: import it as
# repro.faults.campaign, or run python -m repro.faults.campaign.
from .injector import install_equivocation, install_export_filter, \
    install_export_leak, install_export_mutator, install_import_filter, \
    install_inbound_drop, shorten_as_path, tamper_bit_proof, \
    tamper_log_entry, tamper_proof_set
from .oracle import PrivacyReport, SystemExpectation, check_clean, \
    check_detections, check_privacy

__all__ = [
    "ATTACK_CLASSES", "SEC74_SPECS", "SECRET_ORIGIN",
    "AckWithholdingAdversary", "Adversary", "AttackSpec",
    "CollusionAdversary", "DetectResult", "EquivocationAdversary",
    "InterceptionAdversary", "LeakPromises", "ProofTamperAdversary",
    "RouteDropAdversary", "RouteLeakAdversary", "World",
    "WrongfulExportAdversary", "adversary_for",
    "selective_export_scheme_for_spider", "standard_workload",
    "install_equivocation", "install_export_filter",
    "install_export_leak", "install_export_mutator",
    "install_import_filter", "install_inbound_drop",
    "shorten_as_path", "tamper_bit_proof", "tamper_log_entry",
    "tamper_proof_set",
    "PrivacyReport", "SystemExpectation", "check_clean",
    "check_detections", "check_privacy",
]
