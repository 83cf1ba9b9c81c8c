"""The obs/names.py catalogue is the single source of metric names.

Three guarantees: the catalogue itself is pinned (adding/removing a
name is a visible golden diff here), its constants are well-formed and
collision-free, and a live end-to-end scenario emits no name outside
it — the dynamic counterpart of lint rule SPDR004, which enforces the
same property statically at every call site.
"""

import pytest

from repro.obs import names
from repro.obs.dump import scenario_snapshot

#: Golden: every declared metric/span name.  A deliberate schema change
#: updates this list in the same diff that edits obs/names.py.
GOLDEN_NAMES = sorted([
    "signatures_made_total", "payloads_signed_total",
    "signatures_checked_total", "sign_seconds", "sign_batch_size",
    "verify_seconds",
    "mtt_labelings_total", "mtt_hashes_total", "mtt_label_seconds",
    "mtt_pool_workers", "mtt_pool_jobs", "mtt_pool_spinups_total",
    "mtt_pool_spinup_seconds", "mtt_pool_installs_total",
    "mtt_pool_dispatches_total", "mtt_pool_occupancy",
    "mtt_pool_failures_total",
    "mtt_tree_edits_total", "mtt_schedule_builds_total",
    "commitment_dirty_prefixes",
    "spider_alarms_total",
    "traffic_bytes_total", "cpu_seconds_total",
    "delivery_tracked_total", "delivery_retries_total",
    "delivery_acks_matched_total", "delivery_give_ups_total",
    "delivery_pending", "retry_backoff_seconds",
    "transport_frames_sent_total", "transport_bytes_sent_total",
    "transport_frames_received_total", "transport_bytes_received_total",
    "tcp_queue_depth", "tcp_decode_errors_total",
    "runtime_inbox_depth",
    "soak_sessions", "soak_messages_sent_total",
    "soak_acks_received_total",
    "store_append_bytes_total", "store_records_total",
    "store_fsyncs_total", "store_segments",
    "store_segment_rotations_total", "store_reclaimed_bytes_total",
    "store_recovery_seconds", "store_recovered_records_total",
    "store_torn_bytes_total",
    "campaign_runs_total", "campaign_detections_total",
    "campaign_false_positives_total", "campaign_seconds",
    "campaign_disclosed_bytes",
    "commitment",
])


def _constants():
    return {key: value for key, value in vars(names).items()
            if key.isupper() and isinstance(value, str)}


def test_catalogue_matches_golden():
    assert sorted(names.ALL_METRIC_NAMES) == GOLDEN_NAMES


def test_every_constant_is_in_the_frozenset():
    constants = _constants()
    assert constants, "catalogue is empty"
    assert set(constants.values()) == set(names.ALL_METRIC_NAMES)


def test_constant_values_are_collision_free():
    constants = _constants()
    assert len(set(constants.values())) == len(constants)


def test_names_are_well_formed():
    for value in names.ALL_METRIC_NAMES:
        assert value == value.lower()
        assert " " not in value


@pytest.fixture(scope="module")
def live_snapshot():
    return scenario_snapshot()


def test_live_scenario_emits_only_catalogued_names(live_snapshot):
    emitted = set()
    for kind in ("counters", "gauges", "histograms"):
        emitted.update(entry["name"] for entry in live_snapshot[kind])
    emitted.update(entry["name"] for entry in live_snapshot["spans"])
    stray = emitted - names.ALL_METRIC_NAMES
    assert not stray, f"undeclared metric names emitted: {sorted(stray)}"
    # Sanity: the scenario actually exercises the schema.
    assert "signatures_made_total" in emitted
