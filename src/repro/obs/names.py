"""The canonical catalogue of instrumentation names.

Every metric or span name written into the :mod:`repro.obs` registry
must be a literal declared here (or a reference to one of these
constants).  The golden snapshot-schema test and the Prometheus/JSON
exporters treat metric names as a stable public schema; funneling the
names through one module means a typo'd or ad-hoc name is a lint error
(rule SPDR004 in :mod:`repro.analysis`) instead of a silently forked
time series.

Adding a metric is a two-step change by design: declare the name here,
then use it at the call site — the diff shows the schema change
explicitly.
"""

from __future__ import annotations

from typing import FrozenSet

# -- crypto ------------------------------------------------------------
SIGNATURES_MADE_TOTAL = "signatures_made_total"
PAYLOADS_SIGNED_TOTAL = "payloads_signed_total"
SIGNATURES_CHECKED_TOTAL = "signatures_checked_total"
SIGN_SECONDS = "sign_seconds"
SIGN_BATCH_SIZE = "sign_batch_size"
VERIFY_SECONDS = "verify_seconds"

# -- MTT labeling ------------------------------------------------------
MTT_LABELINGS_TOTAL = "mtt_labelings_total"
MTT_HASHES_TOTAL = "mtt_hashes_total"
MTT_LABEL_SECONDS = "mtt_label_seconds"
MTT_POOL_WORKERS = "mtt_pool_workers"
MTT_POOL_JOBS = "mtt_pool_jobs"
MTT_POOL_SPINUPS_TOTAL = "mtt_pool_spinups_total"
MTT_POOL_SPINUP_SECONDS = "mtt_pool_spinup_seconds"
MTT_POOL_INSTALLS_TOTAL = "mtt_pool_installs_total"
MTT_POOL_DISPATCHES_TOTAL = "mtt_pool_dispatches_total"
MTT_POOL_OCCUPANCY = "mtt_pool_occupancy"
MTT_POOL_FAILURES_TOTAL = "mtt_pool_failures_total"

# -- the retained commitment tree (one round's diff) -------------------
MTT_TREE_EDITS_TOTAL = "mtt_tree_edits_total"
MTT_SCHEDULE_BUILDS_TOTAL = "mtt_schedule_builds_total"
COMMITMENT_DIRTY_PREFIXES = "commitment_dirty_prefixes"

# -- SPIDeR node -------------------------------------------------------
SPIDER_ALARMS_TOTAL = "spider_alarms_total"

# -- Section 7 cost attribution ---------------------------------------
TRAFFIC_BYTES_TOTAL = "traffic_bytes_total"
CPU_SECONDS_TOTAL = "cpu_seconds_total"

# -- runtime delivery --------------------------------------------------
DELIVERY_TRACKED_TOTAL = "delivery_tracked_total"
DELIVERY_RETRIES_TOTAL = "delivery_retries_total"
DELIVERY_ACKS_MATCHED_TOTAL = "delivery_acks_matched_total"
DELIVERY_GIVE_UPS_TOTAL = "delivery_give_ups_total"
DELIVERY_PENDING = "delivery_pending"
RETRY_BACKOFF_SECONDS = "retry_backoff_seconds"

# -- transports --------------------------------------------------------
TRANSPORT_FRAMES_SENT_TOTAL = "transport_frames_sent_total"
TRANSPORT_BYTES_SENT_TOTAL = "transport_bytes_sent_total"
TRANSPORT_FRAMES_RECEIVED_TOTAL = "transport_frames_received_total"
TRANSPORT_BYTES_RECEIVED_TOTAL = "transport_bytes_received_total"
TCP_QUEUE_DEPTH = "tcp_queue_depth"
TCP_DECODE_ERRORS_TOTAL = "tcp_decode_errors_total"

# -- node runtime ------------------------------------------------------
RUNTIME_INBOX_DEPTH = "runtime_inbox_depth"

# -- durable log store (repro.store) -----------------------------------
STORE_APPEND_BYTES_TOTAL = "store_append_bytes_total"
STORE_RECORDS_TOTAL = "store_records_total"
STORE_FSYNCS_TOTAL = "store_fsyncs_total"
STORE_SEGMENTS = "store_segments"
STORE_SEGMENT_ROTATIONS_TOTAL = "store_segment_rotations_total"
STORE_RECLAIMED_BYTES_TOTAL = "store_reclaimed_bytes_total"
STORE_RECOVERY_SECONDS = "store_recovery_seconds"
STORE_RECOVERED_RECORDS_TOTAL = "store_recovered_records_total"
STORE_TORN_BYTES_TOTAL = "store_torn_bytes_total"

# -- soak scenario -----------------------------------------------------
SOAK_SESSIONS = "soak_sessions"
SOAK_MESSAGES_SENT_TOTAL = "soak_messages_sent_total"
SOAK_ACKS_RECEIVED_TOTAL = "soak_acks_received_total"

# -- adversarial campaigns (repro.faults.campaign) ---------------------
CAMPAIGN_RUNS_TOTAL = "campaign_runs_total"
CAMPAIGN_DETECTIONS_TOTAL = "campaign_detections_total"
CAMPAIGN_FALSE_POSITIVES_TOTAL = "campaign_false_positives_total"
CAMPAIGN_SECONDS = "campaign_seconds"
CAMPAIGN_DISCLOSED_BYTES = "campaign_disclosed_bytes"

# -- span names --------------------------------------------------------
SPAN_COMMITMENT = "commitment"

#: Every declared metric/span name.  SPDR004 checks call-site literals
#: against this set; the golden-schema test pins its contents.
ALL_METRIC_NAMES: FrozenSet[str] = frozenset(
    value for key, value in sorted(globals().items())
    if key.isupper() and isinstance(value, str) and key != "ALL"
)
