"""Whole-program taint engine: SPDR006/SPDR008 acceptance tests.

Three layers:

* fixture dirs under ``fixtures/spdr006`` / ``fixtures/spdr008`` run
  through :func:`analyze_paths_dataflow` exactly as the CLI does
  (trigger fires, clean is quiet, suppressions hold);
* inline virtual programs prove every *declared declassifier* is
  load-bearing: each one sits between a source and a sink in a minimal
  flow that is clean with the full registry and a finding without it;
* the repo's own ``src`` tree must analyze clean, and removing the
  commitment/signature declassifiers, the §6.5 sanctioned seed→log
  flow or a §7.1 sanctioned flow into OpenSSL (the RC4 seed, the RSA
  private key) must surface findings
  — proving the engine actually traverses those paths rather than
  being vacuously quiet.
"""

from pathlib import Path

import pytest

from repro.analysis.callgraph import Program, load_program
from repro.analysis.contracts import LABEL_RSA, SINK_LOG, SINK_NATIVE, \
    default_registry
from repro.analysis.taint import (TaintAnalysis, analyze_paths_dataflow,
                                  build_registry)

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).parents[2]


# ----------------------------------------------------------------------
# Fixture-driven rule behavior


def _flow(rule_id: str, variant: str):
    target = FIXTURES / rule_id.lower() / variant
    assert target.is_dir(), f"fixture dir missing: {target}"
    return analyze_paths_dataflow([str(target)])


def test_spdr006_trigger_fires_with_traces():
    result = _flow("SPDR006", "trigger")
    assert not result.parse_errors
    assert {f.rule_id for f in result.findings} == {"SPDR006"}
    assert len(result.findings) == 2
    by_path = {f.path: f for f in result.findings}
    leak = by_path["repro/spider/leaky.py"]
    assert "rc4-seed" in leak.message
    assert "obs-label" in leak.message
    exfil = by_path["repro/runtime/policy_exfil.py"]
    assert "bgp-policy" in exfil.message
    assert "codec-encode" in exfil.message
    for finding in result.findings:
        assert finding.trace, "dataflow findings must carry a trace"


def test_seeded_violation_has_full_source_to_sink_trace():
    # The issue's acceptance scenario: Rc4Csprng seed bytes reach an
    # obs label through an intermediate function, and the finding's
    # trace names both the source read and the interprocedural hop.
    result = _flow("SPDR006", "trigger")
    leak = next(f for f in result.findings
                if f.path == "repro/spider/leaky.py")
    rendered = "\n".join(leak.render_trace())
    assert "source rc4-seed" in rendered
    assert "Rc4Csprng" in rendered
    assert "returned by derive_tag()" in rendered
    # The finding anchors at the sink, where suppressions must sit.
    assert leak.line == 20


def test_spdr006_clean_is_quiet():
    result = _flow("SPDR006", "clean")
    assert result.findings == []
    assert result.suppressed == 0


def test_spdr006_suppression_at_sink_line_holds():
    result = _flow("SPDR006", "suppressed")
    assert result.findings == []
    assert result.suppressed == 1


def test_spdr008_trigger_fires():
    result = _flow("SPDR008", "trigger")
    assert {f.rule_id for f in result.findings} == {"SPDR008"}
    assert len(result.findings) == 4
    details = "\n".join(f.message for f in result.findings)
    assert "f-string interpolation" in details
    assert "%-format interpolation" in details
    assert ".format() interpolation" in details


def test_spdr008_clean_is_quiet():
    result = _flow("SPDR008", "clean")
    assert result.findings == []


def test_spdr008_suppression_holds():
    result = _flow("SPDR008", "suppressed")
    assert result.findings == []
    assert result.suppressed == 1


# ----------------------------------------------------------------------
# Every declared declassifier is load-bearing

#: declassifier name -> a minimal module whose single flow is clean
#: only because of that declassifier.
LEVER_PROGRAMS = {
    "bit-commitment": '''\
def commit(log, rng, bit):
    blinding = rng.bitstring(20)
    label = bit_commitment(bit, blinding)
    log.append(label)
''',
    "merkle-label": '''\
def fingerprint(rng):
    tag = digest(rng.seed)
    return encode_message(tag)
''',
    "proof-construction": '''\
def reveal(log, node):
    proof = generate_proof(node.blinding)
    log.append(proof)
''',
    "rsa-sign": '''\
def attest(identity, payload):
    signature = sign(identity.private_key, payload)
    return encode_message(signature)
''',
    "public-key-derivation": '''\
def announce(keypair):
    pub = public_key(keypair.private_key)
    return encode_message(pub)
''',
    "policy-decision": '''\
def export(policy_engine, route):
    policy = gao_rexford_policy(policy_engine)
    verdict = policy.apply(route)
    return encode_message(verdict)
''',
    "constant-time-eq": '''\
def audit(registry, rng, expected):
    blinding = rng.bitstring(20)
    ok = constant_time_eq(blinding, expected)
    registry.counter("audits_total", outcome=ok).inc()
''',
    "census": '''\
def report(registry, rng):
    blinding = rng.bitstring(20)
    shape = census(blinding)
    registry.counter("nodes_total", shape=shape).inc()
''',
}


def _lever_program(name: str) -> Program:
    return Program.from_sources([
        (f"repro/spider/lever_{name.replace('-', '_')}.py",
         LEVER_PROGRAMS[name])])


def test_every_declared_declassifier_has_a_lever_program():
    declared = {d.name for d in default_registry().declassifiers}
    assert declared == set(LEVER_PROGRAMS), \
        "keep LEVER_PROGRAMS in sync with default_registry()"


@pytest.mark.parametrize("name", sorted(LEVER_PROGRAMS))
def test_flow_is_clean_with_declassifier_present(name):
    program = _lever_program(name)
    findings = TaintAnalysis(program, default_registry()).run()
    assert findings == [], \
        f"{name} lever program should be clean with the full registry"


@pytest.mark.parametrize("name", sorted(LEVER_PROGRAMS))
def test_deleting_declassifier_breaks_the_flow(name):
    program = _lever_program(name)
    registry = default_registry().without_declassifier(name)
    findings = TaintAnalysis(program, registry).run()
    assert findings, \
        f"removing {name} must make its legitimate flow a finding"
    assert all(f.trace for f in findings)


# ----------------------------------------------------------------------
# Attribute-level privacy model


def test_public_attrs_stop_receiver_taint_inheritance():
    source = '''\
def generate(asn):
    keypair = generate_keypair(asn)
    return keypair


def record(registry, asn):
    identity = generate(asn)
    registry.gauge("node_up", node=identity.asn).set(1)


def leak(registry, asn):
    identity = generate(asn)
    registry.gauge("node_up", key=identity.private_key).set(1)
'''
    program = Program.from_sources([("repro/spider/ids.py", source)])
    findings = TaintAnalysis(program, default_registry()).run()
    # identity.asn is public; identity.private_key is not.
    assert len(findings) == 1
    assert findings[0].line == 13


# ----------------------------------------------------------------------
# The repo's own tree (slowest tests last)


@pytest.fixture(scope="module")
def src_program():
    return load_program([str(REPO / "src")])


def test_src_tree_is_clean_under_dataflow(src_program):
    registry = build_registry(src_program)
    findings = TaintAnalysis(src_program, registry).run()
    assert findings == [], [f.render() for f in findings]


def test_src_docstring_markers_feed_the_registry(src_program):
    # The packages declare their own secrets next to the code: the
    # ``:spiderlint-contract:`` markers on gao_rexford_policy,
    # Rc4Csprng.bitstring(s), generate_keypair, commitment_seed,
    # compute_label, and encode_message are harvested by the call-graph
    # builder and folded into the contract registry.
    harvested = {(m.kind, m.arg) for m in src_program.doc_markers()}
    assert {("source", "bgp-policy"),
            ("source", "commit-randomness"),
            ("source", "rsa-private"),
            ("source", "rc4-seed"),
            ("declassifier", "merkle-label"),
            ("sink", "codec-encode")} <= harvested
    registry = build_registry(src_program)
    marker_sources = [s for s in registry.sources
                      if s.description.startswith("docstring marker")]
    assert any(s.pattern == "call:bitstring" for s in marker_sources)
    assert any(s.pattern == "call:generate_keypair"
               for s in marker_sources)


def test_removing_bit_commitment_surfaces_commitment_path(src_program):
    # The engine must actually traverse the §5.3 commitment path: with
    # the hiding property deleted from the registry, real flows in the
    # tree become findings.
    registry = build_registry(src_program) \
        .without_declassifier("bit-commitment")
    findings = TaintAnalysis(src_program, registry).run()
    assert findings, "bit-commitment must be load-bearing on src"
    assert all(f.trace for f in findings)


def test_removing_rsa_sign_surfaces_signature_path(src_program):
    registry = build_registry(src_program) \
        .without_declassifier("rsa-sign")
    findings = TaintAnalysis(src_program, registry).run()
    assert findings, "rsa-sign must be load-bearing on src"


def test_sanctioned_seed_log_flow_is_traversed(src_program):
    # §6.5: the recorder logs the raw per-commitment seed.  The flow is
    # sanctioned, so the tree is clean — but deleting the sanction must
    # surface it, proving the engine sees the flow rather than missing
    # it.
    registry = build_registry(src_program)
    registry.sanctioned = [flow for flow in registry.sanctioned
                           if flow.sink_id != SINK_LOG]
    findings = TaintAnalysis(src_program, registry).run()
    seed_hits = [f for f in findings
                 if "rc4-seed" in f.message and
                 f.path.startswith("repro/spider/")]
    assert seed_hits, \
        "the recorder's seed->log flow must be visible to the engine"


def test_sanctioned_seed_to_c_cipher_flow_is_traversed(src_program):
    # §7.1: Rc4Csprng keys the installed C ARC4 with the seed.  The flow
    # is sanctioned, not suppressed; deleting the sanction surfaces it.
    registry = build_registry(src_program)
    registry.sanctioned = [flow for flow in registry.sanctioned
                           if flow.sink_id != SINK_NATIVE]
    findings = TaintAnalysis(src_program, registry).run()
    assert [f.path for f in findings
            if "rc4-seed" in f.message and SINK_NATIVE in f.message] \
        == ["repro/crypto/rc4.py"]


def test_sanctioned_rsa_key_to_c_flow_is_traversed(src_program):
    # §7.1: each PrivateKey loads its CRT components into one OpenSSL key
    # object.  The flow is sanctioned, not suppressed; deleting the
    # sanction surfaces exactly that one load.
    registry = build_registry(src_program)
    registry.sanctioned = [flow for flow in registry.sanctioned
                           if (flow.label, flow.sink_id)
                           != (LABEL_RSA, SINK_NATIVE)]
    findings = TaintAnalysis(src_program, registry).run()
    assert [f.path for f in findings] == ["repro/crypto/rsa.py"]
    assert LABEL_RSA in findings[0].message
    assert "argument of RSAPrivateNumbers()" in findings[0].message


def test_stats_are_populated():
    stats = {}
    analyze_paths_dataflow([str(FIXTURES / "spdr006" / "trigger")],
                           stats=stats)
    assert stats["functions"] >= 3
    assert stats["parse_seconds"] >= 0.0
    assert stats["solve_seconds"] >= 0.0
