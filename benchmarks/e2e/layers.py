"""Layer probes: which public callables are timed, and what is derived.

The program is measured from outside.  :data:`TARGETS` lists the
callables of each layer that the traced run wraps by attribute
substitution (``src/`` is not edited; an untraced unit wraps nothing),
:class:`Tracer` records ``(name, layer, thread, start, end, parent,
unit, n)`` spans in memory, and :func:`derive` turns the written trace
file into the per-layer metrics named in ``BENCHMARK.json``.

A module-level function is substituted *in the namespace that calls
it* (``repro.runtime.tcp.decode_message``, not
``repro.runtime.codec.decode_message``), so the same function reached
from another layer is a different span and the load generator's own
calls stay unwrapped.
"""

import importlib
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, \
    Sequence, Tuple

#: ``(module, attribute path, span name, layer, count)``.  ``count``
#: maps ``(args, result)`` to the span's work count ``n`` (0 if None);
#: it runs after the span closed, so keep it O(1).
Target = Tuple[str, str, str, str, Optional[Callable[[Any, Any], int]]]


def _len_result(_args: Any, result: Any) -> int:
    return len(result)


def _second_arg(args: Any, _result: Any) -> int:
    return int(args[1])


TARGETS: Tuple[Target, ...] = (
    # runtime: framing, codec, tcp egress
    ("repro.runtime.framing", "FrameDecoder.feed",
     "framing.feed", "runtime", _len_result),
    ("repro.runtime.tcp", "decode_message",
     "codec.decode", "runtime", None),
    ("repro.runtime.tcp", "encode_message",
     "codec.encode", "runtime", _len_result),
    ("repro.runtime.tcp", "encode_frame",
     "framing.encode", "runtime", None),
    ("repro.runtime.tcp", "TcpTransport.send",
     "tcp.send", "runtime", None),
    # bgp
    ("repro.bgp.route", "Route.from_bytes",
     "route.decode", "bgp", None),
    # crypto
    ("repro.crypto.rsa", "verify", "rsa.verify", "crypto", None),
    ("repro.crypto.rsa", "sign", "rsa.sign", "crypto", None),
    ("repro.crypto.signatures", "Signer.sign_batch",
     "sign_batch", "crypto", lambda args, _r: len(args[1])),
    ("repro.crypto.rc4", "Rc4Csprng.bitstrings",
     "rc4.bitstrings", "crypto", _second_arg),
    # recorder
    ("repro.spider.recorder", "Recorder.receive",
     "recorder.receive", "recorder", None),
    ("repro.spider.recorder", "Recorder.flush_outbox",
     "recorder.flush_outbox", "recorder", lambda _a, r: int(r)),
    ("repro.spider.recorder", "Recorder.mtt_entries",
     "recorder.mtt_entries", "recorder", _len_result),
    ("repro.spider.recorder", "Recorder.make_commitment",
     "recorder.make_commitment", "recorder", None),
    ("repro.spider.recorder", "Recorder.__init__",
     "recorder.init", "recorder", None),
    # mtt
    ("repro.mtt.tree", "Mtt.build", "mtt.build", "mtt", None),
    ("repro.spider.recorder", "label_tree_with_workers",
     "mtt.label", "mtt", lambda _a, r: int(r.hash_count)),
    ("repro.spider.proofgen", "label_tree_with_workers",
     "mtt.label", "mtt", lambda _a, r: int(r.hash_count)),
    ("repro.spider.proofgen", "generate_proof",
     "mtt.proof_gen", "mtt", None),
    ("repro.spider.checker", "verify_proof",
     "mtt.proof_verify", "mtt", None),
    # proofgen
    ("repro.spider.proofgen", "replay", "proofgen.replay",
     "proofgen", None),
    ("repro.spider.wire", "SpiderBitProof.make",
     "proofgen.sign_proof", "proofgen", None),
    # store
    ("repro.store.seglog", "SegmentedLogStore.append",
     "store.append", "store", None),
    ("repro.store.seglog", "encode_log_entry",
     "store.entry_encode", "store", _len_result),
    ("repro.store.seglog", "SegmentedLogStore.sync",
     "store.sync", "store", None),
    ("repro.store.seglog", "scan_segment",
     "store.scan", "store", lambda _a, r: len(r.records)),
    ("repro.store.recovery", "rebuild_entries",
     "store.rebuild", "store", _len_result),
    ("os", "fsync", "store.fsync", "store", None),
)


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []
        self._name_ids: Dict[Tuple[str, str], int] = {}
        #: Per thread: the list of span tuples
        #: ``(name_id, start, end, parent, unit, n)``.
        self.threads: Dict[str, List[Optional[Tuple[Any, ...]]]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._unit = [-1]
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def _state(self) -> Tuple[List[Any], List[int]]:
        with self._lock:
            thread = threading.current_thread().name
            spans = self.threads.setdefault(thread, [])
        state = (spans, [-1])
        self._local.state = state
        return state

    @property
    def active(self) -> bool:
        """Whether the wrappers are installed (a traced unit runs)."""
        return bool(self._installed)

    def set_unit(self, unit: int) -> None:
        self._unit[0] = unit

    def wrap(self, name: str, layer: str, fn: Callable[..., Any],
             count: Optional[Callable[[Any, Any], int]] = None
             ) -> Callable[..., Any]:
        name_id = self._name_id(name, layer)
        local = self._local
        new_state = self._state
        unit = self._unit
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = new_state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n = 0
                if count is not None and result is not None:
                    n = count(args, result)
                spans[index] = (name_id, start, end, parent, unit[0], n)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def scope(self, name: str, layer: str,
              n: int = 0) -> Iterator[None]:
        """A span around the harness's own call into the program."""
        try:
            spans, stack = self._local.state
        except AttributeError:
            spans, stack = self._state()
        index = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(index)
        name_id = self._name_id(name, layer)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name_id, start, end, parent, self._unit[0], n)

    # -- attribute substitution ----------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        for module_name, path, name, layer, count in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            if isinstance(raw, classmethod):
                new: Any = classmethod(
                    self.wrap(name, layer, raw.__func__,
                              _skip_cls(count)))
            else:
                new = self.wrap(name, layer, raw, count)
            self._installed.append((owner, attribute, raw))
            setattr(owner, attribute, new)

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)

    # -- output --------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        for thread, spans in self.threads.items():
            if any(span is None for span in spans):
                raise RuntimeError(f"thread {thread} has an open span")
        return {
            "names": [{"name": n, "layer": layer}
                      for n, layer in self.names],
            "columns": ["name", "start", "end", "parent", "unit", "n"],
            "threads": {thread: [list(span) for span in spans]
                        for thread, spans in sorted(self.threads.items())},
        }


def _skip_cls(count: Optional[Callable[[Any, Any], int]]
              ) -> Optional[Callable[[Any, Any], int]]:
    if count is None:
        return None
    return lambda args, result: count(args[1:], result)


# ----------------------------------------------------------------------
# Probes outside the pipeline


def pool_probe(entries: Any, clock: Any) -> Dict[str, float]:
    """Warm shared-memory labeling pool on the run's final table:
    spin-up seconds (spawn plus program install) and one warm round.

    Probe only: the pipeline itself runs ``commit_workers=1``.  Skipped
    (zeros) on a single-core box, where the pool cannot overlap work.
    """
    import os
    from repro.crypto.rc4 import Rc4Csprng
    from repro.mtt.labeling import label_tree_parallel
    from repro.mtt.pool import LabelPool
    from repro.mtt.tree import Mtt

    workers = min(4, os.cpu_count() or 1)
    if workers < 2 or not entries:
        return {"workers": workers, "spinup_s": 0.0, "round_ms": 0.0}
    tree = Mtt.build(entries)
    seed = b"e2e-pool-probe-seed."
    pool = LabelPool(workers)
    try:
        first = label_tree_parallel(tree, Rc4Csprng(seed), workers,
                                    pool=pool, materialize=False)
        rounds = [clock.run("probe", lambda: label_tree_parallel(
            tree, Rc4Csprng(seed), workers, pool=pool,
            materialize=False).hash_count) for _ in range(2)]
    finally:
        pool.close()
    return {"workers": workers,
            "spinup_s": pool.spinup_seconds + first.spinup_seconds,
            "round_ms": statistics.median(
                unit.nominal for unit in rounds) * 1e3}


def tcp_thread_cpu() -> float:
    """CPU seconds the hub's transport thread has used so far."""
    for thread in threading.enumerate():
        if thread.name.startswith("spider-tcp-") and \
                thread.ident is not None:
            return time.clock_gettime(
                time.pthread_getcpuclockid(thread.ident))
    return 0.0


# ----------------------------------------------------------------------
# From the trace file to per-layer metrics


class _Spans:
    """The trace file's spans, indexed for the derivations below."""

    def __init__(self, trace: Dict[str, Any]):
        self.names = [entry["name"] for entry in trace["names"]]
        self.layers = [entry["layer"] for entry in trace["names"]]
        self.units = trace["run"]["units"]
        #: name -> list of (thread, index) in recording order.
        self.by_name: Dict[str, List[Tuple[str, int]]] = {}
        self.threads: Dict[str, List[List[Any]]] = trace["threads"]
        self.self_time: Dict[str, List[float]] = {}
        #: unit index -> (start, end) of every root span, any thread.
        self.roots: Dict[int, List[Tuple[float, float]]] = {}
        for thread, spans in self.threads.items():
            own = [span[2] - span[1] for span in spans]
            for span in spans:
                if span[3] >= 0:
                    own[span[3]] -= span[2] - span[1]
            self.self_time[thread] = own
            for index, span in enumerate(spans):
                self.by_name.setdefault(
                    self.names[span[0]], []).append((thread, index))
                if span[3] < 0:
                    self.roots.setdefault(span[4], []).append(
                        (span[1], span[2]))

    def select(self, name: str, phase: Optional[str] = None,
               thread_prefix: Optional[str] = None,
               under: Optional[str] = None) -> List[Tuple[str, int]]:
        out = []
        for thread, index in self.by_name.get(name, []):
            span = self.threads[thread][index]
            if phase is not None and \
                    (span[4] < 0 or self.units[span[4]]["phase"] != phase):
                continue
            if thread_prefix is not None and \
                    not thread.startswith(thread_prefix):
                continue
            if under is not None and not self._has_ancestor(
                    thread, index, under):
                continue
            out.append((thread, index))
        return out

    def _has_ancestor(self, thread: str, index: int, name: str) -> bool:
        spans = self.threads[thread]
        parent = spans[index][3]
        while parent >= 0:
            if self.names[spans[parent][0]] == name:
                return True
            parent = spans[parent][3]
        return False

    def durations(self, picks: Sequence[Tuple[str, int]]) -> List[float]:
        return [self.threads[t][i][2] - self.threads[t][i][1]
                for t, i in picks]

    def selfs(self, picks: Sequence[Tuple[str, int]]) -> List[float]:
        return [self.self_time[t][i] for t, i in picks]

    def counts(self, picks: Sequence[Tuple[str, int]]) -> List[int]:
        return [self.threads[t][i][5] for t, i in picks]

    def covered(self, unit_index: int) -> float:
        """Seconds of one unit under at least one span on any thread."""
        unit = self.units[unit_index]
        lo, hi = unit["start"], unit["start"] + unit["wall_s"]
        intervals = sorted(
            (max(lo, start), min(hi, end))
            for start, end in self.roots.get(unit_index, ())
            if end > lo and start < hi)
        total, edge = 0.0, lo
        for start, end in intervals:
            if end > edge:
                total += end - max(start, edge)
                edge = end
        return total

    def layer_shares(self, phase: str) -> Dict[str, float]:
        """Self time per layer as a share of the phase's traced wall."""
        wall = sum(u["wall_s"] for u in self.units
                   if u["phase"] == phase and u["traced"])
        shares: Dict[str, float] = {}
        if wall <= 0:
            return shares
        for thread, spans in self.threads.items():
            own = self.self_time[thread]
            for index, span in enumerate(spans):
                if span[4] >= 0 and \
                        self.units[span[4]]["phase"] == phase:
                    layer = self.layers[span[0]]
                    shares[layer] = shares.get(layer, 0.0) + own[index]
        return {layer: value / wall for layer, value in shares.items()}


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1,
                       max(0, int(-(-share * len(ordered) // 1)) - 1))]


PHASES = ("ingest", "commit", "audit", "restart")


def derive(trace: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from one written trace file."""
    s = _Spans(trace)
    facts = trace["facts"]
    units = s.units
    us, ms = 1e6, 1e3

    def traced_work(phase: str) -> int:
        return sum(u["work"] for u in units
                   if u["phase"] == phase and u["traced"])

    updates = traced_work("ingest")
    recovered = traced_work("restart")
    out: Dict[str, Tuple[float, str]] = {}

    # runtime
    feeds = s.select("framing.feed", thread_prefix="spider-tcp-")
    out["runtime.frame_decode_us_per_msg"] = (
        _ratio(sum(s.selfs(feeds)), sum(s.counts(feeds))) * us, "us")
    out["runtime.codec_decode_us_per_msg"] = (
        _mean(s.durations(s.select("codec.decode"))) * us, "us")
    out["runtime.codec_encode_us_per_msg"] = (
        _mean(s.durations(s.select("codec.encode"))) * us, "us")
    out["runtime.tcp_thread_cpu_share"] = (
        _ratio(sum(c for c, _w in facts["tcp_cpu"]),
               sum(w for _c, w in facts["tcp_cpu"])), "share")
    out["runtime.inbox_depth_high_water"] = (
        facts["inbox_depth_high_water"], "count")
    windows = [u["nominal_s"] * ms for u in units
               if u["phase"] == "ingest"]
    out["runtime.window_ack_ms_p50"] = (_percentile(windows, 0.5), "ms")
    out["runtime.window_ack_ms_p99"] = (_percentile(windows, 0.99), "ms")

    # crypto
    out["crypto.rsa_verify_us"] = (
        _mean(s.durations(s.select("rsa.verify",
                                   thread_prefix="Main"))) * us, "us")
    out["crypto.rsa_verifies_per_update"] = (
        _ratio(len(s.select("rsa.verify", phase="ingest",
                            thread_prefix="Main")), updates), "count")
    out["crypto.rsa_sign_us"] = (
        _mean(s.durations(s.select("rsa.sign",
                                   thread_prefix="Main"))) * us, "us")
    out["crypto.rsa_signs_per_update"] = (
        _ratio(len(s.select("rsa.sign", phase="ingest",
                            thread_prefix="Main")), updates), "count")
    out["crypto.sign_batch_size_mean"] = (
        _mean(s.counts(s.select("sign_batch", phase="ingest",
                                thread_prefix="Main"))), "count")
    draws = s.select("rc4.bitstrings")
    out["crypto.rc4_mb_per_s"] = (
        _ratio(sum(s.counts(draws)) * 20 / 1e6,
               sum(s.durations(draws))), "MB/s")
    out["crypto.hashes_per_round"] = (
        _mean(facts["round_hashes"]), "count")

    # recorder
    out["recorder.receive_self_us_per_update"] = (
        _mean(s.selfs(s.select("recorder.receive",
                               phase="ingest"))) * us, "us")
    flushes = s.select("recorder.flush_outbox", phase="ingest")
    out["recorder.ack_flush_us_per_ack"] = (
        _ratio(sum(s.selfs(flushes)), sum(s.counts(flushes))) * us, "us")
    out["recorder.mtt_entries_ms"] = (
        _mean(s.durations(s.select("recorder.mtt_entries",
                                   phase="commit"))) * ms, "ms")
    out["recorder.commit_self_ms"] = (
        _mean(s.selfs(s.select("recorder.make_commitment"))) * ms, "ms")
    inits = s.select("recorder.init", phase="restart")
    out["recorder.adopt_us_per_entry"] = (
        _ratio(sum(s.selfs(inits)), recovered) * us, "us")

    # mtt
    out["mtt.build_ms"] = (
        _mean(s.durations(s.select("mtt.build", phase="commit"))) * ms,
        "ms")
    label_ms = _mean(s.durations(s.select("mtt.label",
                                          phase="commit"))) * ms
    out["mtt.label_ms"] = (label_ms, "ms")
    out["mtt.nodes"] = (_mean(facts["round_nodes"]), "count")
    out["mtt.label_ns_per_node"] = (
        _ratio(label_ms * 1e6, _mean(facts["round_nodes"])), "ns")
    out["mtt.proof_gen_us"] = (
        _mean(s.durations(s.select("mtt.proof_gen"))) * us, "us")
    out["mtt.proof_verify_us"] = (
        _mean(s.durations(s.select("mtt.proof_verify"))) * us, "us")
    out["mtt.digest_cache_hit_ratio"] = (
        _ratio(facts["digest_hits"],
               facts["digest_hits"] + facts["digest_misses"]), "share")
    out["mtt.pool_round_ms"] = (facts["pool"]["round_ms"], "ms")
    out["mtt.pool_spinup_s"] = (facts["pool"]["spinup_s"], "s")

    # proofgen
    out["proofgen.replay_ms"] = (
        _mean(s.durations(s.select("proofgen.replay"))) * ms, "ms")
    out["proofgen.entries_replayed"] = (
        _mean(facts["entries_replayed"]), "count")
    out["proofgen.relabel_ms"] = (
        _mean(s.durations(s.select("mtt.label", phase="audit"))) * ms,
        "ms")
    out["proofgen.sign_us_per_proof"] = (
        _mean(s.durations(s.select("proofgen.sign_proof"))) * us, "us")
    out["proofgen.cache_hit_ratio"] = (
        facts["reconstruction_cache_hit_ratio"], "share")

    # checker
    checks = s.select("checker.check")
    out["checker.check_us_per_proof"] = (
        _ratio(sum(s.durations(checks)), sum(s.counts(checks))) * us,
        "us")
    out["checker.sig_verify_share"] = (
        _ratio(sum(s.durations(s.select("rsa.verify",
                                        under="checker.check"))),
               sum(s.durations(checks))), "share")

    # store
    out["store.append_us"] = (
        _mean(s.durations(s.select("store.append",
                                   phase="ingest"))) * us, "us")
    out["store.entry_encode_us"] = (
        _mean(s.durations(s.select("store.entry_encode"))) * us, "us")
    fsyncs = s.select("store.fsync", phase="ingest")
    out["store.fsyncs_per_update"] = (
        _ratio(len(fsyncs), updates), "count")
    out["store.fsync_ms_p50"] = (
        _percentile(s.durations(s.select("store.fsync")), 0.5) * ms,
        "ms")
    out["store.frame_overhead_bytes"] = (
        _ratio(facts["store_frame_bytes"] - facts["store_entry_bytes"],
               facts["store_records"]), "B")
    scans = s.select("store.scan", phase="restart")
    rebuilds = s.select("store.rebuild", phase="restart")
    out["store.recover_scan_us_per_entry"] = (
        _ratio(sum(s.durations(scans)), recovered) * us, "us")
    out["store.recover_chain_us_per_entry"] = (
        _ratio(sum(s.selfs(rebuilds)), recovered) * us, "us")

    # bgp, obs
    out["bgp.route_decode_us"] = (
        _mean(s.durations(s.select("route.decode",
                                   thread_prefix="spider-tcp-"))) * us,
        "us")
    out["obs.series_count"] = (facts["obs_series"], "count")

    # the trace itself
    gained, base = 0.0, 0.0
    worst = 0.0
    for phase in PHASES:
        members = [u for u in units if u["phase"] == phase and u["work"]]
        traced = [u["nominal_s"] / u["work"] for u in members
                  if u["traced"]]
        plain = [u["nominal_s"] / u["work"] for u in members
                 if not u["traced"]]
        work = sum(u["work"] for u in members)
        if traced and plain:
            gained += (statistics.median(traced) -
                       statistics.median(plain)) * work
            base += statistics.median(plain) * work
        wall = sum(u["wall_s"] for u in members if u["traced"])
        covered = sum(s.covered(index) for index, u in enumerate(units)
                      if u["phase"] == phase and u["traced"])
        share = 1.0 - _ratio(covered, wall) if wall else 0.0
        out[f"trace.unattributed_share_{phase}"] = (share, "share")
        worst = max(worst, share)
    out["trace.overhead_share"] = (_ratio(gained, base), "share")
    out["trace.unattributed_share"] = (worst, "share")
    return out


def layer_table(trace: Dict[str, Any]) -> List[str]:
    """The attribution table, as printable lines: per phase each
    layer's self time as a share of the traced units' wall time, then
    every span name that holds at least 2 % of it."""
    spans = _Spans(trace)
    lines: List[str] = []
    for phase in PHASES:
        shares = spans.layer_shares(phase)
        lines.append(f"layers {phase:8s} " + " ".join(
            f"{layer}={share:.3f}" for layer, share in
            sorted(shares.items(), key=lambda item: -item[1])))
        wall = sum(u["wall_s"] for u in spans.units
                   if u["phase"] == phase and u["traced"])
        rows = []
        for name in spans.by_name:
            picks = spans.select(name, phase=phase)
            own = sum(spans.selfs(picks))
            if wall and own / wall >= 0.02:
                rows.append((own / wall, name, len(picks), own))
        for share, name, calls, own in sorted(rows, reverse=True):
            lines.append(f"  span {phase:8s} {name:26s} self "
                         f"{share:6.3f}  calls {calls:7d}  "
                         f"{own / calls * 1e6:10.1f} us/call")
    return lines
