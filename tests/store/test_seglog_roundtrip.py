"""SegmentedLogStore behavior: append, rotation, fsync, trim, reopen."""

import pytest

from repro.obs.registry import Registry
from repro.runtime.logdump import encode_log_entry
from repro.spider.log import EntryKind, SpiderLog
from repro.store import SegmentedLogStore, StoreError, \
    droppable_segments, recover
from repro.store.segment import SegmentInfo


def commitment_payload(i):
    return {"seed": bytes(20), "root": b"root-%04d" % i}


def fill(store, n, start=0):
    """Drive ``n`` commitment entries through a SpiderLog into the
    store (the log computes indices and the hash chain)."""
    log = SpiderLog(retention_seconds=1e9, sink=store)
    for i in range(start, start + n):
        log.append(float(i), EntryKind.COMMITMENT,
                   commitment_payload(i))
    return log


def reopened(tmp_path, **kwargs):
    kwargs.setdefault("registry", Registry())
    return SegmentedLogStore(str(tmp_path), **kwargs)


class TestRoundtrip:
    def test_recover_matches_appended(self, tmp_path):
        store = reopened(tmp_path, fsync="batch")
        log = fill(store, 10)
        store.close()
        recovery = recover(reopened(tmp_path))
        assert recovery.entries == list(log)
        assert recovery.head == log.head
        assert recovery.next_index == 10

    def test_restored_log_verifies_and_extends(self, tmp_path):
        store = reopened(tmp_path, fsync="always")
        fill(store, 5)
        store.close()
        store2 = reopened(tmp_path, fsync="always")
        recovery = recover(store2)
        log = SpiderLog.restore(recovery.entries,
                                retention_seconds=1e9, sink=store2)
        log.verify_chain()
        log.append(99.0, EntryKind.COMMITMENT,
                   commitment_payload(99))
        store2.close()
        final = recover(reopened(tmp_path))
        assert len(final.entries) == 6
        assert final.entries[-1].index == 5

    def test_rotation_produces_segments(self, tmp_path):
        store = reopened(tmp_path, fsync="never", segment_bytes=128)
        fill(store, 12)
        assert len(store.segments()) > 1
        bases = [info.base_index for info in store.segments()]
        assert bases == sorted(bases)
        store.close()
        recovery = recover(reopened(tmp_path, segment_bytes=128))
        assert [e.index for e in recovery.entries] == list(range(12))


class TestAppendDiscipline:
    def test_first_append_must_be_entry_zero(self, tmp_path):
        store = reopened(tmp_path)
        restored = SpiderLog.restore(
            fill(reopened(tmp_path / "other"), 3)._entries,
            retention_seconds=1e9, sink=store)
        with pytest.raises(StoreError):
            restored.append(9.0, EntryKind.COMMITMENT,
                            commitment_payload(9))

    def test_contiguous_indices_enforced(self, tmp_path):
        store = reopened(tmp_path)
        log = fill(store, 3)
        entry = log._entries[-1]
        with pytest.raises(StoreError):
            # replay of index 2 after index 2
            store.append(entry, encode_log_entry(entry))

    def test_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(StoreError):
            SegmentedLogStore(str(tmp_path), fsync="sometimes",
                              registry=Registry())


class TestFsyncAccounting:
    def test_always_fsyncs_per_append(self, tmp_path):
        registry = Registry()
        store = reopened(tmp_path / "a", fsync="always",
                         registry=registry)
        fill(store, 8)
        store.close()
        assert registry.total("store_fsyncs_total") >= 8

    def test_batch_fsyncs_only_at_sync(self, tmp_path):
        registry = Registry()
        store = reopened(tmp_path / "b", fsync="batch",
                         registry=registry)
        fill(store, 8)
        # Only the segment-creation header sync so far — no per-append
        # fsync under the group-commit policy.
        after_fill = registry.total("store_fsyncs_total")
        assert after_fill <= 1
        store.sync()
        assert registry.total("store_fsyncs_total") == after_fill + 1
        store.close()

    def test_append_metrics_split_by_kind(self, tmp_path):
        registry = Registry()
        store = reopened(tmp_path, registry=registry)
        fill(store, 4)
        assert registry.total("store_records_total",
                              kind="commitments") == 4
        assert registry.total("store_append_bytes_total",
                              kind="commitments") > 0


class TestTrim:
    def test_whole_segment_compaction(self, tmp_path):
        registry = Registry()
        store = reopened(tmp_path, fsync="never", segment_bytes=128,
                         registry=registry)
        fill(store, 12)
        segments_before = store.segments()
        assert len(segments_before) >= 3
        keep_from = segments_before[-1].base_index
        reclaimed = store.trim(keep_from)
        assert reclaimed == sum(info.size_bytes
                                for info in segments_before[:-1])
        assert registry.total("store_reclaimed_bytes_total") \
            == reclaimed
        recovery = recover(store)
        assert recovery.entries[0].index == keep_from
        assert recovery.entries[-1].index == 11
        store.close()
        # Compacted stores re-verify on a cold open too (anchored at
        # the first surviving record).
        again = recover(reopened(tmp_path, segment_bytes=128))
        assert again.entries[0].index == keep_from

    def test_active_segment_never_dropped(self):
        segments = [SegmentInfo(path=f"seg{i}", base_index=i * 4,
                                size_bytes=100) for i in range(3)]
        # Even a horizon past everything keeps the final segment.
        dropped = droppable_segments(segments, keep_from_index=999)
        assert dropped == segments[:-1]

    def test_partial_coverage_keeps_segment(self):
        segments = [SegmentInfo(path="a", base_index=0, size_bytes=1),
                    SegmentInfo(path="b", base_index=4, size_bytes=1),
                    SegmentInfo(path="c", base_index=8, size_bytes=1)]
        # Horizon inside segment b: only a is fully covered.
        assert droppable_segments(segments, 5) == segments[:1]
        assert droppable_segments(segments, 3) == []
