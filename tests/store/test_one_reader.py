"""A store directory has one reader (ISSUE 20).

``repro.store.seglog.read_directory`` is the only walk over a store
directory and the only statement of which directories are acceptable;
a cold ``NodeRuntime(store_dir=…)``, ``recover`` and ``python -m
repro.store.inspect`` all consume it.  Pinned here:

* every crash image of a real write history — each byte-length prefix
  of the ``(file, bytes)`` sequence the store wrote under
  ``fsync="always"`` — cold-opens to exactly the records fully written,
  and ``inspect --verify`` agrees with the runtime on verdict, record
  count and chain head;
* a renamed tail, a renamed sealed segment and a flipped byte of tail
  header magic are refused by the runtime and by ``inspect --verify``
  alike (each was accepted by one or both before there was one reader);
* one cold open, or one ``inspect --verify``, scans each segment once;
* nothing is appended behind a chain nobody verified.
"""

import os
import shutil

import pytest

from repro.crypto.hashing import DIGEST_SIZE
from repro.obs.registry import Registry, use_registry
from repro.runtime.logdump import encode_log_entry
from repro.runtime.node_runtime import NodeRuntime
from repro.runtime.scenario import ASN_A, exchange_runtime
from repro.runtime.transport import LoopbackHub
from repro.spider.log import EntryKind
from repro.store import SegmentedLogStore, StoreCorruptionError, \
    StoreError, list_segments, recover, seglog, segment_filename
from repro.store.inspect import inspect_directory, main as inspect_main
from repro.store.segment import HEADER_SIZE
from tests.spider.test_retained_tree import ELECTOR, NEIGHBORS, P, Q, \
    SCHEME, World
from tests.store.test_recovery_fuzz import build_store, flip_byte

SEGMENT_BYTES = 400  # one announce, or a few smaller records, per file


class WriteLog:
    """Stands in for ``open`` in ``repro.store.seglog``: every append
    the store makes to a segment file, in order, as ``(name, bytes)``."""

    def __init__(self):
        self.writes = []

    def __call__(self, path, mode):
        handle = open(path, mode)
        return _Recorded(handle, os.path.basename(path), self.writes) \
            if mode == "ab" else handle


class _Recorded:
    def __init__(self, handle, name, writes):
        self._handle, self._name, self._writes = handle, name, writes

    def write(self, data):
        self._writes.append((self._name, bytes(data)))
        return self._handle.write(data)

    def __getattr__(self, attribute):
        return getattr(self._handle, attribute)


class History:
    """A recorder's log written through a small-segment store under
    ``fsync="always"``, with everything the store wrote."""

    def __init__(self, directory):
        self.directory = str(directory)
        self.world = World()
        recording = WriteLog()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(seglog, "open", recording, raising=False)
            store = SegmentedLogStore(
                self.directory, fsync="always",
                segment_bytes=SEGMENT_BYTES, registry=Registry())
            world = self.world
            world.recorder = world.build(
                log_store=store,
                master_seed=b"spider-runtime-%d" % ELECTOR)
            world.announce(2, P)
            world.commit()
            world.announce(3, Q, (4000,))
            world.commit()
            self.entries = list(world.recorder.log)
            world.recorder.close()
            store.close()
        self.writes = recording.writes
        self.segments = len(list_segments(self.directory))

    def cold_open(self, directory):
        """A ``NodeRuntime`` on ``directory``, as a restart builds it."""
        world = self.world
        hub = LoopbackHub()
        for neighbor in NEIGHBORS:
            hub.attach(neighbor)
        return NodeRuntime(
            world.identity, world.registry, SCHEME, hub.attach(ELECTOR),
            neighbors=NEIGHBORS, config=world.config, clock=world.clock,
            store_dir=str(directory))

    def images(self):
        """Every crash image, as ``(files, records)``: one per
        byte-length prefix of the write history, ``files`` mapping a
        segment name to the bytes that reached it and ``records``
        counting the frames fully written — and, where a write creates
        a file, one more with the file created and still empty."""
        files, records = {}, 0
        yield {}, 0
        for name, data in self.writes:
            # The first write to a file is its header, the rest frames.
            header = name not in files
            if header:
                files[name] = b""
                yield dict(files), records
            written = files[name]
            for cut in range(1, len(data)):
                files[name] = written + data[:cut]
                yield dict(files), records
            files[name] = written + data
            records += not header
            yield dict(files), records


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    with use_registry(Registry()):
        return History(tmp_path_factory.mktemp("history") / "store")


def materialise(directory, files):
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    for name, data in files.items():
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(data)


class TestEveryCrashImage:
    def test_history_is_worth_enumerating(self, history):
        assert history.segments >= 3
        firsts = {}
        for name, data in history.writes:
            firsts.setdefault(name, data)
        assert sorted(firsts) == sorted(os.listdir(history.directory))
        assert {len(data) for data in firsts.values()} == {HEADER_SIZE}
        assert len(history.writes) == \
            history.segments + len(history.entries)
        assert sum(1 for _ in history.images()) == 1 + history.segments \
            + sum(len(data) for _name, data in history.writes)

    def test_cold_open_and_inspect_agree_on_every_image(
            self, history, tmp_path):
        image = str(tmp_path / "image")
        with use_registry(Registry()):
            for files, records in history.images():
                survivors = history.entries[:records]
                head = survivors[-1].chain if survivors \
                    else bytes(DIGEST_SIZE)
                materialise(image, files)

                # inspect first: it must leave the image as it found it.
                report = inspect_directory(image, verify=True)
                assert "error" not in report, (records, report)
                assert report["verification"]["records"] == records
                assert report["verification"]["chain_head"] == head.hex()
                assert {name: open(os.path.join(image, name),
                                   "rb").read()
                        for name in os.listdir(image)} == files

                runtime = history.cold_open(image)
                try:
                    log = runtime.recorder.log
                    assert runtime.recovery.stats.records == records
                    assert list(log) == survivors
                    assert log.head == head
                    log.verify_chain()
                    # One more append lands behind the survivors ...
                    log.append(runtime.clock.now, EntryKind.COMMITMENT,
                               {"seed": bytes(20), "root": b"after"})
                    extended = list(log)
                finally:
                    runtime.close()
                # ... and a reopen finds it there, chain intact.
                store = SegmentedLogStore(image, registry=Registry())
                again = recover(store)
                store.close()
                assert again.entries == extended
                assert [e.index for e in again.entries] == \
                    list(range(records + 1))
                assert again.stats.torn_bytes == 0


def refused(directory, capsys):
    """Cold-open ``directory`` — as a store and as a runtime — and
    ``inspect --verify`` it: all must refuse, with one message, and the
    refused store must leave the files alone.  Returns the error text
    and the CLI's output."""
    before = sorted(os.listdir(directory))
    store = SegmentedLogStore(str(directory), registry=Registry())
    with pytest.raises(StoreCorruptionError) as caught:
        recover(store)
    assert store.trim(1 << 40) == 0
    assert sorted(os.listdir(directory)) == before
    with use_registry(Registry()), \
            pytest.raises(StoreCorruptionError) as cold:
        exchange_runtime(ASN_A, LoopbackHub().attach(ASN_A),
                         store_dir=str(directory))
    assert str(cold.value) == str(caught.value)
    assert inspect_main([str(directory), "--verify"]) == 1
    return str(caught.value), capsys.readouterr().out


class TestWhatTheWalkersDisagreedOn:
    """Three directories the parent's four walkers did not agree on
    (twelve records, two to a segment: bases 0, 2, … 10)."""

    @pytest.fixture()
    def directory(self, tmp_path):
        store, _entries = build_store(tmp_path, 12)
        store.close()
        return tmp_path

    def test_renamed_tail_is_refused(self, directory, capsys):
        tail = list_segments(str(directory))[-1]
        renamed = segment_filename(tail.base_index + 1000)
        os.rename(tail.path, directory / renamed)
        error, output = refused(directory, capsys)
        assert renamed in error and renamed in output

    def test_renamed_sealed_segment_is_refused(self, directory, capsys):
        """The name is what ``trim`` decides by: with the segment of
        records 8–9 named for 7 (still in order, so nothing else looks
        wrong), ``trim(8)`` would delete records the log still holds."""
        renamed = segment_filename(7)
        os.rename(directory / segment_filename(8), directory / renamed)
        error, output = refused(directory, capsys)
        assert renamed in error and renamed in output

    def test_flipped_tail_header_magic_is_refused(self, directory,
                                                  capsys):
        tail = list_segments(str(directory))[-1]
        flip_byte(tail.path, 0)
        error, output = refused(directory, capsys)
        assert "bad segment magic" in error
        assert os.path.basename(tail.path) in output


class TestOnePass:
    @pytest.fixture()
    def scans(self, monkeypatch):
        calls = []
        scan = seglog.scan_segment

        def counted(path):
            calls.append(os.path.basename(path))
            return scan(path)

        monkeypatch.setattr(seglog, "scan_segment", counted)
        return calls

    def test_cold_open_scans_each_segment_once(self, history, tmp_path,
                                               scans):
        image = tmp_path / "image"
        shutil.copytree(history.directory, image)
        with use_registry(Registry()):
            runtime = history.cold_open(image)
        try:
            assert list(runtime.recorder.log) == history.entries
        finally:
            runtime.close()
        assert scans == sorted(os.listdir(image))
        assert len(scans) == history.segments

    def test_inspect_verify_scans_each_segment_once(self, history,
                                                    scans, capsys):
        assert inspect_main([history.directory, "--verify"]) == 0
        assert scans == sorted(os.listdir(history.directory))
        assert f"verified {len(history.entries)} records in " \
            f"{history.segments} segments" in capsys.readouterr().out


class TestNoAppendBehindAnUnverifiedChain:
    def test_reopened_store_refuses_append_until_recovered(self,
                                                           tmp_path):
        store, entries = build_store(tmp_path, 5)
        store.close()
        reopened = SegmentedLogStore(str(tmp_path), registry=Registry())
        entry = entries[-1]
        with pytest.raises(StoreError, match="recover"):
            reopened.append(entry, encode_log_entry(entry))
        assert recover(reopened).entries == entries
        with pytest.raises(StoreError, match="non-contiguous"):
            reopened.append(entry, encode_log_entry(entry))
        reopened.close()

    def test_refused_store_stays_shut(self, tmp_path):
        store, entries = build_store(tmp_path, 5)
        store.close()
        flip_byte(list_segments(str(tmp_path))[0].path, HEADER_SIZE + 9)
        reopened = SegmentedLogStore(str(tmp_path), registry=Registry())
        with pytest.raises(StoreCorruptionError):
            recover(reopened)
        assert reopened._fh is None
        entry = entries[-1]
        with pytest.raises(StoreError, match="recover"):
            reopened.append(entry, encode_log_entry(entry))

    def test_empty_directory_needs_no_recovery(self, tmp_path):
        store, entries = build_store(tmp_path, 3)
        store.close()
        reopened = SegmentedLogStore(str(tmp_path), registry=Registry())
        assert recover(reopened).entries == entries
        reopened.close()
