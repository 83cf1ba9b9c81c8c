"""Smoke test of the end-to-end benchmark (not tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

At ``--scale 0.1`` every workload finishes in seconds, is correct,
emits every metric name ``BENCHMARK.json`` declares, and writes a trace
whose spans nest.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def session_members(session):
    """Names of the live processes of one session (Linux ``/proc``)."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                name, _, rest = handle.read().partition("(")[2] \
                    .rpartition(")")
        except OSError:
            continue
        if int(rest.split()[3]) == session:
            found.append(f"{pid} {name}")
    return found


def run(workload, trace, seed=5):
    # Its own session, so whatever the run leaves behind (the pool
    # probe's workers, the stdlib resource tracker) can be found.
    done = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed), "--scale", "0.1",
         "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, start_new_session=True)
    try:
        out, err = done.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        done.kill()
        done.communicate()
        raise
    assert done.returncode == 0, err[-2000:]
    if os.path.isdir("/proc/self"):
        assert session_members(done.pid) == []
    return out.strip().splitlines()


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))


def test_declared_names_are_well_formed():
    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in END_TO_END
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


def test_untraced_run_prints_every_end_to_end_metric():
    lines = run("audit_sweep", trace=0)
    result = json.loads(lines[-1])
    check_result(result, END_TO_END)
    assert all(metric["value"] > 0
               for metric in result["metrics"].values())
    assert any(line.startswith("log_head ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_nested_spans(workload):
    lines = run(workload, trace=1)
    check_result(json.loads(lines[-1]), PER_LAYER)
    with open(os.path.join(HERE, "out", f"trace-{workload}.json")) \
            as handle:
        trace = json.load(handle)
    # The same command measured every end-to-end metric too.
    assert set(trace["run"]["end_to_end"]) == set(END_TO_END)
    assert all(NAME.match(entry["name"]) and NAME.match(entry["layer"])
               for entry in trace["names"])
    spans = 0
    for thread in trace["threads"].values():
        for _name, start, end, parent, unit, _n in thread:
            assert start <= end
            assert trace["run"]["units"][unit]["traced"]
            if parent >= 0:
                _pn, parent_start, parent_end, _pp, parent_unit, _pc = \
                    thread[parent]
                assert parent_start <= start and end <= parent_end
                assert parent_unit == unit
            spans += 1
    assert spans > 100


def test_same_seed_same_log_head_other_seed_other_head():
    def head(seed):
        lines = run("durable_churn", trace=0, seed=seed)
        return [l for l in lines if l.startswith("log_head ")][0]
    assert head(7) == head(7)
    assert head(7) != head(8)
