"""Engine mechanics: suppressions, fingerprints, baselines, parsing."""

import json
from pathlib import Path

import pytest

from repro.analysis import Engine, all_rules, load_baseline, write_baseline
from repro.analysis.baseline import BaselineError, check_shrunk
from repro.analysis.engine import normalize_path, parse_suppressions
from repro.analysis.findings import FINGERPRINT_SCHEMA, compute_fingerprint

#: A module that trips SPDR002 once, placed in the spider scope.
VIRTUAL_PATH = "repro/spider/virtual.py"
OFFENDING = "def check(a, b):\n    return a.payload == b\n"


def _engine():
    return Engine(all_rules())


def _analyze(source, path=VIRTUAL_PATH, baseline=None):
    return _engine().analyze_source(source, path, baseline=baseline)


# ----------------------------------------------------------------------
# Suppression comments


def test_finding_without_suppression():
    result = _analyze(OFFENDING)
    assert len(result.findings) == 1
    assert result.findings[0].rule_id == "SPDR002"
    assert result.suppressed == 0


def test_trailing_suppression_silences_its_line():
    source = ("def check(a, b):\n"
              "    return a.payload == b  # spiderlint: disable=SPDR002\n")
    result = _analyze(source)
    assert result.findings == []
    assert result.suppressed == 1


def test_whole_line_comment_covers_next_line():
    source = ("def check(a, b):\n"
              "    # spiderlint: disable=SPDR002\n"
              "    return a.payload == b\n")
    result = _analyze(source)
    assert result.findings == []
    assert result.suppressed == 1


def test_bare_disable_silences_every_rule():
    source = ("def check(a, b):\n"
              "    return a.payload == b  # spiderlint: disable\n")
    result = _analyze(source)
    assert result.findings == []
    assert result.suppressed == 1


def test_suppression_for_other_rule_does_not_apply():
    source = ("def check(a, b):\n"
              "    return a.payload == b  # spiderlint: disable=SPDR001\n")
    result = _analyze(source)
    assert len(result.findings) == 1
    assert result.suppressed == 0


def test_parse_suppressions_shape():
    lines = ["x = 1  # spiderlint: disable=SPDR001,SPDR002",
             "# spiderlint: disable",
             "y = 2"]
    silenced = parse_suppressions(lines)
    assert silenced[1] == {"SPDR001", "SPDR002"}
    assert silenced[2] == {"*"}
    assert silenced[3] == {"*"}  # whole-line comment covers line below


# ----------------------------------------------------------------------
# Path normalization


@pytest.mark.parametrize("raw, expected", [
    ("src/repro/spider/wire.py", "repro/spider/wire.py"),
    ("/abs/path/src/repro/mtt/proofs.py", "repro/mtt/proofs.py"),
    ("tests/analysis/fixtures/spdr001/trigger/repro/mtt/x.py",
     "repro/mtt/x.py"),
    ("elsewhere/module.py", "elsewhere/module.py"),
])
def test_normalize_path(raw, expected):
    assert normalize_path(raw) == expected


def test_out_of_scope_path_is_quiet():
    # SPDR002 scopes to crypto/core/mtt/spider/runtime modules only.
    result = _analyze(OFFENDING, path="repro/netsim/virtual.py")
    assert result.findings == []


# ----------------------------------------------------------------------
# Fingerprints and occurrences


def test_identical_lines_get_distinct_fingerprints():
    source = ("def check(a, b):\n"
              "    return a.payload == b\n"
              "\n"
              "def check2(a, b):\n"
              "    return a.payload == b\n")
    result = _analyze(source)
    assert len(result.findings) == 2
    first, second = result.findings
    assert first.line_text == second.line_text
    assert (first.occurrence, second.occurrence) == (0, 1)
    assert first.fingerprint() != second.fingerprint()


def test_fingerprint_survives_line_shift():
    shifted = "# a new leading comment\n\n" + OFFENDING
    original = _analyze(OFFENDING).findings[0]
    moved = _analyze(shifted).findings[0]
    assert original.line != moved.line
    assert original.fingerprint() == moved.fingerprint()


def test_fingerprint_survives_reindent():
    # v2 fingerprints hash the whitespace-normalized snippet: wrapping
    # the offending line in an if-block must not change its identity.
    reindented = ("def check(a, b):\n"
                  "    if a is not None:\n"
                  "        return a.payload == b\n")
    original = _analyze(OFFENDING).findings[0]
    moved = _analyze(reindented).findings[0]
    assert original.fingerprint() == moved.fingerprint()
    # Internal-whitespace edits are also identity-preserving.
    respaced = OFFENDING.replace("a.payload == b", "a.payload  ==  b")
    assert _analyze(respaced).findings[0].fingerprint() == \
        original.fingerprint()


def test_fingerprint_schema_is_v2_and_deterministic():
    assert FINGERPRINT_SCHEMA == 2
    a = compute_fingerprint("SPDR002", "repro/spider/x.py",
                            "  return a ==  b  ", 0)
    b = compute_fingerprint("SPDR002", "repro/spider/x.py",
                            "return a == b", 0)
    assert a == b  # whitespace-normalized
    assert a != compute_fingerprint("SPDR002", "repro/spider/x.py",
                                    "return a == b", 1)


# ----------------------------------------------------------------------
# Baseline ratchet


def test_baseline_roundtrip(tmp_path):
    findings = _analyze(OFFENDING).findings
    baseline_file = tmp_path / "baseline.json"
    write_baseline(str(baseline_file), findings)
    fingerprints = load_baseline(str(baseline_file))
    assert fingerprints == {finding.fingerprint() for finding in findings}

    rerun = _analyze(OFFENDING, baseline=fingerprints)
    assert rerun.findings == []
    assert rerun.baselined == len(findings)
    assert rerun.ok


def test_baseline_entries_are_auditable(tmp_path):
    baseline_file = tmp_path / "baseline.json"
    write_baseline(str(baseline_file), _analyze(OFFENDING).findings)
    doc = json.loads(baseline_file.read_text())
    entry = doc["findings"][0]
    assert set(entry) == {"fingerprint", "rule", "location", "line"}
    assert entry["rule"] == "SPDR002"
    assert entry["location"].startswith(VIRTUAL_PATH)


@pytest.mark.parametrize("payload", [
    "not json at all",
    '{"version": 99, "findings": []}',
    '{"version": 1}',
    '{"version": 1, "findings": [42]}',
])
def test_malformed_baseline_rejected(tmp_path, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    with pytest.raises(BaselineError):
        load_baseline(str(bad))


def test_missing_baseline_rejected(tmp_path):
    with pytest.raises(BaselineError):
        load_baseline(str(tmp_path / "absent.json"))


def test_check_shrunk_accepts_shrinkage_and_rejects_growth(tmp_path):
    findings = _analyze(OFFENDING).findings
    old = tmp_path / "old.json"
    new_empty = tmp_path / "new_empty.json"
    write_baseline(str(old), findings)
    write_baseline(str(new_empty), [])
    assert check_shrunk(str(old), str(new_empty)) == []
    assert check_shrunk(str(old), str(old)) == []
    # Growth: the old baseline was empty, the new one is not.
    grown = check_shrunk(str(new_empty), str(old))
    assert grown == sorted(f.fingerprint() for f in findings)


def test_v1_baseline_is_rejected(tmp_path):
    """Schema v1 (raw line-text fingerprints) is not readable and is
    not migrated: nothing but the empty v2 baseline has existed since
    the v2 fingerprint landed."""
    path = tmp_path / "v1.json"
    path.write_text(json.dumps({"version": 1, "findings": []}))
    with pytest.raises(BaselineError, match="unsupported"):
        load_baseline(str(path))
    with pytest.raises(BaselineError, match="unsupported"):
        check_shrunk(str(path), str(path))


# ----------------------------------------------------------------------
# Parse failures


def test_syntax_error_is_reported_not_raised():
    result = _analyze("def broken(:\n", path="repro/spider/broken.py")
    assert result.findings == []
    assert len(result.parse_errors) == 1
    assert "syntax error" in result.parse_errors[0]
    assert not result.ok


def test_nul_byte_source_is_reported_not_raised():
    result = _analyze("x = 1\x00\n", path="repro/spider/nul.py")
    assert result.findings == []
    assert len(result.parse_errors) == 1
    # 3.11 raises SyntaxError for NUL bytes; older versions ValueError.
    # Either way it must surface as a parse error, never a crash.
    assert result.parse_errors[0].startswith("repro/spider/nul.py:")
    assert not result.ok


def test_broken_files_on_disk_are_reported_not_raised(tmp_path):
    good = tmp_path / "repro" / "spider"
    good.mkdir(parents=True)
    (good / "ok.py").write_text("x = 1\n")
    (good / "syntax.py").write_text("def broken(:\n")
    (good / "binary.py").write_bytes(b"\xff\xfe\x00 not utf8 \x80")
    result = _engine().analyze_paths([str(tmp_path)])
    assert result.files_analyzed == 2  # the undecodable file is skipped
    assert len(result.parse_errors) == 2
    joined = "\n".join(result.parse_errors)
    assert "syntax error" in joined
    assert "not valid UTF-8" in joined
    assert not result.ok
