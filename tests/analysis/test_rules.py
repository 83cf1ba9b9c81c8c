"""Per-rule self-tests, table-driven over the fixture catalogue.

Every per-file rule has three fixture variants under
``fixtures/<rule>/<variant>/repro/...``:

* ``trigger`` — at least two files that must fire exactly this rule;
* ``clean``   — at least two files that must stay silent;
* ``suppressed`` — at least one file whose violations are silenced
  in place with ``# spiderlint: disable=...`` comments.

The engine normalizes paths to their ``repro/``-rooted suffix, so the
virtual modules land inside each rule's real scope and are linted by
the same code path as the production tree.  SPDR006/008 are
whole-program dataflow rules; their fixtures are exercised in
``test_taint.py``.
"""

from pathlib import Path

import pytest

from repro.analysis import Engine, all_rules

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (trigger finding count, suppressed-variant silence count).
CASES = {
    "SPDR001": (8, 2),  # clocks, entropy, global RNG, set iteration
    "SPDR002": (4, 1),  # bare ==/!= on digest/label material
    "SPDR003": (7, 1),  # unguarded subscripts, naked struct.unpack
    "SPDR004": (5, 1),  # invented/computed obs metric names
    "SPDR005": (4, 1),  # wire dataclasses missing frozen/slots
    "SPDR007": (4, 1),  # shm leak, use-after-close, unsafe targets
}

RULE_IDS = sorted(CASES)
VARIANTS = ("trigger", "clean", "suppressed")


def _analyze(rule_id: str, variant: str):
    target = FIXTURES / rule_id.lower() / variant
    assert target.is_dir(), f"fixture dir missing: {target}"
    return Engine(all_rules()).analyze_paths([str(target)])


def test_every_rule_has_all_fixture_variants():
    for rule in all_rules():
        for variant in VARIANTS:
            fixture_dir = FIXTURES / rule.rule_id.lower() / variant
            assert fixture_dir.is_dir(), fixture_dir
            assert list(fixture_dir.rglob("*.py")), fixture_dir


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_trigger_fixture_has_two_files(rule_id):
    trigger = FIXTURES / rule_id.lower() / "trigger"
    assert len(list(trigger.rglob("*.py"))) >= 2, \
        f"{rule_id} needs at least two flagged fixture files"
    clean = FIXTURES / rule_id.lower() / "clean"
    assert len(list(clean.rglob("*.py"))) >= 2, \
        f"{rule_id} needs at least two clean fixture files"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_trigger_fixture_fires(rule_id):
    result = _analyze(rule_id, "trigger")
    assert not result.parse_errors
    fired = {finding.rule_id for finding in result.findings}
    # Fixtures are single-rule pure: exactly the rule under test fires.
    assert fired == {rule_id}
    assert len(result.findings) == CASES[rule_id][0]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_clean_fixture_is_quiet(rule_id):
    result = _analyze(rule_id, "clean")
    assert not result.parse_errors
    assert result.findings == []
    assert result.suppressed == 0


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_suppressed_fixture_is_silenced_not_clean(rule_id):
    result = _analyze(rule_id, "suppressed")
    assert not result.parse_errors
    assert result.findings == []
    assert result.suppressed == CASES[rule_id][1]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_trigger_findings_carry_normalized_paths(rule_id):
    result = _analyze(rule_id, "trigger")
    for finding in result.findings:
        assert finding.path.startswith("repro/"), finding.path
        assert finding.line >= 1
        assert finding.message


def test_rule_catalogue_is_complete_and_sorted():
    rules = all_rules()
    assert [rule.rule_id for rule in rules] == RULE_IDS
    assert all(rule.title for rule in rules)
    # Fresh instances each call: no shared mutable state between runs.
    assert rules[0] is not all_rules()[0]


def _scoped_paths():
    """Every ``repro/...`` path a rule or contract scopes by name."""
    import importlib
    import pkgutil

    import repro.analysis.rules as rules_pkg
    from repro.analysis import contracts

    modules = [contracts] + [
        importlib.import_module(f"{rules_pkg.__name__}.{info.name}")
        for info in pkgutil.iter_modules(rules_pkg.__path__)]
    paths = set()
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, tuple) and value and all(
                    isinstance(v, str) and v.startswith("repro/")
                    for v in value):
                paths.update(value)
    registry = contracts.default_registry()
    for contract in registry.sources + registry.sinks:
        paths.update(contract.scope or ())
    return sorted(paths)


def test_every_scoped_path_names_a_source_file():
    """A moved module must take its rules along: a scope naming a path
    that no longer exists silently stops covering anything."""
    src = Path(__file__).resolve().parents[2] / "src"
    paths = _scoped_paths()
    assert "repro/spider/codec.py" in paths
    missing = [path for path in paths
               if not (src / path).is_dir() and not (src / path).is_file()]
    assert missing == []


#: A decoder that indexes its input unchecked: SPDR003 fires on it
#: wherever the rule applies.
_LEAKY_DECODER = '''\
def decode_head(data):
    return data[0]
'''


@pytest.mark.parametrize("path", ["repro/spider/log.py",
                                  "repro/mtt/proofs.py"])
def test_spdr003_covers_the_log_and_proof_decoders(path):
    """The evidence-log entry decoder and the bit proof's bytes are
    read back from disk and the wire like any codec frame, so their
    decoders must fail closed too."""
    result = Engine(all_rules()).analyze_source(_LEAKY_DECODER, path)
    assert [finding.rule_id for finding in result.findings] == ["SPDR003"]
