"""CLI acceptance tests: ``python -m repro.analysis`` exit codes.

These drive :func:`repro.analysis.cli.main` in-process with the same
argv CI uses, covering the acceptance criteria: exit 0 on the repo's
own ``src`` tree under both engines, non-zero on every rule's trigger
fixture, the five options (``--engine``, ``--rules``, ``--format``,
``--list-rules``, ``--stats``), and non-crashing parse-error reporting.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import build_parser, main

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
REPO = HERE.parents[1]
LINT_RULES = ("SPDR001", "SPDR002", "SPDR003", "SPDR004", "SPDR005",
              "SPDR007")
FLOW_RULES = ("SPDR006", "SPDR008")


def test_repo_src_is_clean():
    assert main([str(REPO / "src")]) == 0


def test_repo_src_is_clean_under_dataflow():
    assert main([str(REPO / "src"), "--engine", "dataflow"]) == 0


def test_repo_benchmarks_and_examples_are_clean():
    # The zero-findings gate covers the whole repo, not just src/;
    # suppressions in those trees are allowed, findings are not.
    assert main([str(REPO / "benchmarks"), str(REPO / "examples"),
                 "--engine", "all"]) == 0


@pytest.mark.parametrize("rule_id", LINT_RULES)
def test_trigger_fixture_exits_nonzero(rule_id):
    target = FIXTURES / rule_id.lower() / "trigger"
    assert main([str(target)]) == 1


@pytest.mark.parametrize("rule_id", LINT_RULES)
def test_clean_fixture_exits_zero(rule_id):
    target = FIXTURES / rule_id.lower() / "clean"
    assert main([str(target)]) == 0


@pytest.mark.parametrize("rule_id", FLOW_RULES)
def test_dataflow_trigger_fixture_exits_nonzero(rule_id, capsys):
    target = FIXTURES / rule_id.lower() / "trigger"
    assert main([str(target), "--engine", "dataflow"]) == 1
    # The lint engine alone does not see whole-program flows (the
    # fixture may still trip per-file rules, e.g. SPDR004 on an
    # undeclared metric name).
    capsys.readouterr()
    main([str(target), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rule_id not in {f["rule"] for f in doc["findings"]}


@pytest.mark.parametrize("rule_id", FLOW_RULES)
def test_dataflow_clean_fixture_exits_zero(rule_id):
    target = FIXTURES / rule_id.lower() / "clean"
    assert main([str(target), "--engine", "dataflow"]) == 0


def test_engine_all_merges_both_rule_families(capsys):
    # One run over a lint trigger and a dataflow trigger with
    # --engine all reports findings from both families.
    lint = FIXTURES / "spdr001" / "trigger"
    flow = FIXTURES / "spdr006" / "trigger"
    assert main([str(lint), str(flow), "--engine", "all",
                 "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    rules = {f["rule"] for f in doc["findings"]}
    assert "SPDR001" in rules
    assert "SPDR006" in rules


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in LINT_RULES + FLOW_RULES:
        assert rule_id in out


def test_rules_filter_limits_scope():
    # The SPDR001 trigger is pure: filtering to SPDR005 finds nothing.
    target = FIXTURES / "spdr001" / "trigger"
    assert main([str(target), "--rules", "SPDR005"]) == 0
    assert main([str(target), "--rules", "SPDR001"]) == 1


def test_unknown_rule_id_rejected():
    with pytest.raises(SystemExit):
        main([str(FIXTURES / "spdr001" / "trigger"),
              "--rules", "SPDR999"])


def test_json_output_shape(capsys):
    target = FIXTURES / "spdr002" / "trigger"
    assert main([str(target), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["files_analyzed"] == 2
    assert doc["parse_errors"] == []
    assert len(doc["findings"]) == 4
    for finding in doc["findings"]:
        assert set(finding) == {"rule", "path", "line", "column",
                                "message", "trace"}
        assert finding["rule"] == "SPDR002"
        assert finding["trace"] == []


def test_json_dataflow_findings_carry_traces(capsys):
    target = FIXTURES / "spdr006" / "trigger"
    assert main([str(target), "--engine", "dataflow",
                 "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"], "trigger fixture must produce findings"
    for finding in doc["findings"]:
        assert finding["rule"] == "SPDR006"
        assert finding["trace"], "SPDR006 findings must carry a trace"


def test_parse_error_exits_nonzero_not_crash(tmp_path, capsys):
    # PR-10 satellite: a file that fails ast.parse becomes a reported
    # parse-error finding and a non-zero exit, not a traceback.
    broken = tmp_path / "repro" / "spider" / "broken.py"
    broken.parent.mkdir(parents=True)
    broken.write_text("def truncated(:\n", encoding="utf-8")
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "syntax error" in out
    assert "broken.py" in out


def test_parse_error_exits_nonzero_under_dataflow(tmp_path):
    broken = tmp_path / "repro" / "spider" / "broken.py"
    broken.parent.mkdir(parents=True)
    broken.write_text("class Unclosed(\n", encoding="utf-8")
    assert main([str(tmp_path), "--engine", "dataflow"]) == 1


def test_stats_flag_writes_per_rule_json(tmp_path):
    stats_file = tmp_path / "stats.json"
    target = FIXTURES / "spdr006" / "trigger"
    assert main([str(target), "--engine", "all",
                 "--stats", str(stats_file)]) == 1
    doc = json.loads(stats_file.read_text(encoding="utf-8"))
    assert doc["engine"] == "all"
    assert doc["lint"]["seconds"] >= 0.0
    assert doc["lint"]["files"] >= 1
    assert doc["dataflow"]["seconds"] >= 0.0
    assert doc["dataflow"]["functions"] >= 2
    assert doc["dataflow"]["findings"].get("SPDR006", 0) >= 1


def test_text_output_prints_path_trace(capsys):
    target = FIXTURES / "spdr006" / "trigger"
    assert main([str(target), "--engine", "dataflow"]) == 1
    out = capsys.readouterr().out
    assert "SPDR006" in out
    assert "\n  1. " in out  # the first step of the source->sink trace


def test_cli_has_five_options():
    # An inline suppression is the only way to accept a finding: no
    # baseline file, no fingerprint lookup.
    options = {option for action in build_parser()._actions
               for option in action.option_strings}
    assert options == {"-h", "--help", "--engine", "--format", "--rules",
                       "--list-rules", "--stats"}
