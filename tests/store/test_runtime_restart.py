"""NodeRuntime restart-from-store: the ISSUE 7 acceptance criterion.

A runtime with ``fsync=always`` must recover its full hash chain,
commitment seeds, and checkpoint cursor after dying mid-run — and the
evidence log it then produces must be byte-identical to one from a
process that never died.
"""

import struct

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.obs.registry import Registry, use_registry
from repro.runtime.logdump import encode_log, encode_log_entry
from repro.runtime.scenario import ASN_A, ASN_B, _drive_first_round, \
    exchange_runtime, resume_store_exchange, run_store_reference, \
    run_store_smoke
from repro.runtime.transport import LoopbackHub
from repro.spider.log import EntryKind, TamperError
from repro.store import SegmentedLogStore, StoreCorruptionError, recover
from repro.store.inspect import main as inspect_main
from repro.store.segment import SEGMENT_MAGIC, segment_filename
from tests.store.test_recovery_fuzz import rewrite_record


@pytest.fixture()
def reference():
    with use_registry(Registry()):
        return run_store_reference()


def run_phase1(store_dir, close=True):
    with use_registry(Registry()):
        hub = LoopbackHub()
        rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A),
                                store_dir=store_dir,
                                store_fsync="always")
        rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B))
        _drive_first_round(hub, rt_a, rt_b)
        log_hex = encode_log(rt_a.recorder.log).hex()
        if close:
            rt_a.close()
        return log_hex


class TestInProcessRestart:
    def test_resumed_log_byte_identical(self, tmp_path, reference):
        store_dir = str(tmp_path / "store")
        phase1_hex = run_phase1(store_dir)
        assert phase1_hex == reference["phase1_hex"]
        with use_registry(Registry()):
            recovered, final = resume_store_exchange(store_dir)
        assert recovered["log_hex"] == reference["phase1_hex"]
        assert final["log_hex"] == reference["final_hex"]
        assert final["own_root"] == reference["final_root"]
        assert final["entries"] == reference["entries"]

    def test_checkpoint_cursor_survives(self, tmp_path, reference):
        """The resumed round must NOT re-checkpoint: the cursor from
        round one (24 h interval) was recovered, so exactly one new
        entry — the second commitment — appears."""
        store_dir = str(tmp_path / "store")
        run_phase1(store_dir)
        with use_registry(Registry()):
            recovered, final = resume_store_exchange(store_dir)
        assert final["entries"] == recovered["entries"] + 1

    def test_recovery_without_close_under_fsync_always(self, tmp_path):
        """Dropping the runtime without close() loses nothing."""
        store_dir = str(tmp_path / "store")
        phase1_hex = run_phase1(store_dir, close=False)
        with use_registry(Registry()):
            recovered, _final = resume_store_exchange(store_dir)
        assert recovered["log_hex"] == phase1_hex

    def test_recovered_runtime_reports_stats(self, tmp_path):
        store_dir = str(tmp_path / "store")
        run_phase1(store_dir)
        with use_registry(Registry()) as registry:
            hub = LoopbackHub()
            rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A),
                                    store_dir=store_dir)
            assert rt_a.recovery is not None
            assert rt_a.recovery.stats.records == 4
            assert rt_a.recovery.stats.torn_bytes == 0
            kinds = [e.kind for e in rt_a.recovery.entries]
            assert kinds == [EntryKind.SENT_ANNOUNCE,
                             EntryKind.RECV_ACK,
                             EntryKind.COMMITMENT,
                             EntryKind.CHECKPOINT]
            assert registry.total("store_recovered_records_total") == 4
            rt_a.close()

    def test_a_restart_mints_no_series(self, tmp_path):
        """A series is keyed by node and category, not by the object
        writing it: every cold open of the same directory adds to the
        series the first one created."""
        store_dir = str(tmp_path / "store")
        run_phase1(store_dir)
        with use_registry(Registry()) as registry:
            series = []
            for _ in range(5):
                exchange_runtime(ASN_A, LoopbackHub().attach(ASN_A),
                                 store_dir=store_dir).close()
                series.append(len(registry.metrics()))
        assert series == series[:1] * 5


#: One in-place edit per record of the phase-one store: which record,
#: and the bytes inside it whose last bit is flipped.  Each keeps the
#: length and leaves a decodable entry of the same kind.
AT_REST_EDITS = {
    # the route up to its router id (the community count follows)
    "sent-announce-route":
        (0, lambda e: e.payload.route.to_bytes()[:-2]),
    "recv-ack-hash": (1, lambda e: e.payload.message_hash),
    "commitment-root": (2, lambda e: e.payload["root"]),
    # the first three octets of a /24
    "checkpoint-prefix":
        (3, lambda e: min(e.payload.known_prefixes()).to_bytes()[:3]),
}


class TestTamperAtRest:
    @pytest.mark.parametrize("name", sorted(AT_REST_EDITS))
    def test_rewritten_record_is_never_adopted(self, tmp_path, capsys,
                                               name):
        """An adversary with the disk rewrites one record at equal
        length and fixes its CRC: the cold open must name the record
        and refuse, not adopt (and re-sign) the forged history, and
        ``inspect --verify`` must fail naming the same record."""
        store_dir = str(tmp_path / "store")
        run_phase1(store_dir)
        index, field = AT_REST_EDITS[name]
        with use_registry(Registry()):
            store = SegmentedLogStore(store_dir)
            needle = field(recover(store).entries[index])
            store.close()

        def edit(payload):
            payload[payload.rindex(needle) + len(needle) - 1] ^= 0x01

        rewrite_record(store_dir, index, edit)
        broken = f"record {index} breaks the hash chain"
        with use_registry(Registry()), pytest.raises(TamperError,
                                                     match=broken):
            exchange_runtime(ASN_A, LoopbackHub().attach(ASN_A),
                             store_dir=store_dir)
        with use_registry(Registry()):
            assert inspect_main([store_dir, "--verify"]) == 1
        assert broken in capsys.readouterr().out

    def test_version_1_directory_fails_closed(self, tmp_path):
        """A store written before the chain covered the entry bytes
        says so in its header; nothing past the header is looked at."""
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / segment_filename(0)).write_bytes(
            struct.pack(">8sIQ", SEGMENT_MAGIC, 1, 0) + b"\xff" * 64)
        with use_registry(Registry()), pytest.raises(
                StoreCorruptionError,
                match="unsupported store version 1"):
            exchange_runtime(ASN_A, LoopbackHub().attach(ASN_A),
                             store_dir=str(store_dir))


class TestKillRestartSmoke:
    def test_sigkill_child_then_recover(self, tmp_path):
        """The full subprocess SIGKILL scenario (also run by CI)."""
        with use_registry(Registry()):
            summary = run_store_smoke(str(tmp_path / "store"))
        assert summary["byte_identical"] is True
        assert summary["recovered_entries"] == 4
        assert summary["final_entries"] == summary["reference_entries"]


class TestLargeCheckpoint:
    def test_checkpoint_over_64k_commits_and_recovers(self, tmp_path):
        """A full-table §6.5 checkpoint passes 64 KB at about 1.3 k
        routes; its log entry carries a u32 length, so the first
        commitment on such a table must reach the disk and come back
        from a cold open byte for byte."""
        store_dir = str(tmp_path / "store")
        with use_registry(Registry()):
            hub = LoopbackHub()
            rt = exchange_runtime(ASN_A, hub.attach(ASN_A),
                                  store_dir=store_dir)
            hub.attach(ASN_B)
            rt.advance_to(1.0)
            for i in range(1800):
                prefix = Prefix.parse(f"10.{i // 256}.{i % 256}.0/24")
                rt.announce(ASN_B, Route(prefix=prefix,
                                         as_path=(ASN_A, 4000),
                                         neighbor=4000))
            rt.advance_to(2.0)
            record = rt.commit()
            checkpoint = rt.recorder.log.of_kind(EntryKind.CHECKPOINT)[-1]
            assert len(encode_log_entry(checkpoint)) > 0xFFFF
            log_hex = encode_log(rt.recorder.log).hex()
            rt.close()

            cold = exchange_runtime(ASN_A, LoopbackHub().attach(ASN_A),
                                    store_dir=store_dir)
            try:
                assert encode_log(cold.recorder.log).hex() == log_hex
                assert cold.recorder.commitments[-1].root == record.root
                recovered = cold.recorder.log.of_kind(
                    EntryKind.CHECKPOINT)[-1]
                assert recovered.payload == checkpoint.payload
                assert len(recovered.payload.exports[ASN_B]) == 1800
            finally:
                cold.close()
