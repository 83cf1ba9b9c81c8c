"""Engine mechanics: suppressions, path normalization, parsing."""

import pytest

from repro.analysis import Engine, all_rules
from repro.analysis.engine import normalize_path, parse_suppressions

#: A module that trips SPDR002 once, placed in the spider scope.
VIRTUAL_PATH = "repro/spider/virtual.py"
OFFENDING = "def check(a, b):\n    return a.payload == b\n"


def _engine():
    return Engine(all_rules())


def _analyze(source, path=VIRTUAL_PATH):
    return _engine().analyze_source(source, path)


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
# Identical lines


def test_identical_lines_are_separate_findings():
    # Each hit is its own finding at its own line, so a suppression on
    # one identical line leaves the other standing.
    source = ("def check(a, b):\n"
              "    return a.payload == b  # spiderlint: disable=SPDR002\n"
              "\n"
              "def check2(a, b):\n"
              "    return a.payload == b\n")
    result = _analyze(source)
    assert [f.line for f in result.findings] == [5]
    assert result.suppressed == 1
    assert [f.line for f in _analyze(
        source.replace("  # spiderlint: disable=SPDR002", "")).findings] \
        == [2, 5]


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
