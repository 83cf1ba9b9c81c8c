"""The privacy contract set is pinned.

``default_registry()`` is the one place a source, sink, declassifier or
sanctioned flow is declared, so it is pinned here the way
``tests/obs/test_names_catalogue.py`` pins the metric names: dropping a
contract or narrowing its scope (a loosening the flow tests only catch
if one of them happens to need that contract) is a visible golden diff.
A deliberate change to the privacy model updates these literals in the
same diff that edits ``repro/analysis/contracts.py``.

What is pinned is the *effective* set: entries with the same key are
folded, and their scopes are unioned (``None`` is everywhere).
"""

from typing import Dict, FrozenSet, Optional, Tuple

from repro.analysis.contracts import default_registry

Scope = Optional[FrozenSet[str]]

_CRYPTO_MTT_SPIDER = frozenset({"repro/crypto/", "repro/mtt/",
                                "repro/spider/"})
_MTT_SPIDER = frozenset({"repro/mtt/", "repro/spider/"})
_RSA_MODULE = frozenset({"repro/crypto/rsa.py"})

#: Golden: (label, pattern) → union of scopes.
GOLDEN_SOURCES: Dict[Tuple[str, str], Scope] = {
    ("bgp-policy", "attr:relations"): frozenset({"repro/bgp/"}),
    ("bgp-policy", "call:gao_rexford_policy"): None,
    ("commit-randomness", "attr:blinding"): _MTT_SPIDER,
    ("commit-randomness", "attr:randomness"): _MTT_SPIDER,
    ("commit-randomness", "call:bitstring"): None,
    ("commit-randomness", "call:bitstrings"): None,
    ("rc4-seed", "attr:_seed"): frozenset({"repro/crypto/"}),
    ("rc4-seed", "attr:master_seed"): frozenset({"repro/spider/"}),
    ("rc4-seed", "attr:seed"): _CRYPTO_MTT_SPIDER,
    ("rc4-seed", "call:Rc4Csprng"): None,
    ("rc4-seed", "call:commitment_seed"): None,
    ("rsa-private", "attr:d"): _RSA_MODULE,
    ("rsa-private", "attr:d_p"): _RSA_MODULE,
    ("rsa-private", "attr:d_q"): _RSA_MODULE,
    ("rsa-private", "attr:p"): _RSA_MODULE,
    ("rsa-private", "attr:private_key"): None,
    ("rsa-private", "attr:q"): _RSA_MODULE,
    ("rsa-private", "attr:q_inv"): _RSA_MODULE,
    ("rsa-private", "call:generate_keypair"): None,
}

_STORE_SCOPE = frozenset({"repro/runtime/", "repro/spider/",
                          "repro/store/"})

#: Golden: (sink id, pattern, kwargs_only) → union of scopes.
GOLDEN_SINKS: Dict[Tuple[str, str, bool], Scope] = {
    ("codec-encode", "encode_frame", False): None,
    ("codec-encode", "encode_frames", False): None,
    ("codec-encode", "encode_message", False): None,
    ("logging", "logger.debug", False): None,
    ("logging", "logger.error", False): None,
    ("logging", "logger.exception", False): None,
    ("logging", "logger.info", False): None,
    ("logging", "logger.warning", False): None,
    ("logging", "logging.debug", False): None,
    ("logging", "logging.error", False): None,
    ("logging", "logging.info", False): None,
    ("logging", "logging.warning", False): None,
    ("native-cipher", "ARC4", False): None,
    ("native-cipher", "Cipher", False): None,
    ("native-cipher", "RSAPrivateNumbers", False): None,
    ("obs-label", "counter", True): None,
    ("obs-label", "gauge", True): None,
    ("obs-label", "histogram", True): None,
    ("obs-label", "span", True): None,
    ("spiderlog-append", "log.append", False): None,
    ("store-append", "seglog.append", False): _STORE_SCOPE,
    ("store-append", "store.append", False): _STORE_SCOPE,
}

#: Golden: declassifier name → its patterns.
GOLDEN_DECLASSIFIERS: Dict[str, FrozenSet[str]] = {
    "bit-commitment": frozenset({"bit_commitment", "bit_commitments"}),
    "census": frozenset({"census"}),
    "constant-time-eq": frozenset({"constant_time_eq"}),
    "merkle-label": frozenset({"compute_label", "digest", "digest_concat",
                               "digest_fields", "digest_iter", "sha512"}),
    "policy-decision": frozenset({"apply"}),
    "proof-construction": frozenset({"MttBitProof", "SpiderBitProof",
                                     "generate_proof", "generate_proofs"}),
    "public-key-derivation": frozenset({"public_key"}),
    "rsa-sign": frozenset({"sign"}),
}

#: Golden: the sanctioned (label, sink id) pairs.
GOLDEN_SANCTIONED = frozenset({
    ("rc4-seed", "native-cipher"),
    ("rc4-seed", "spiderlog-append"),
    ("rc4-seed", "store-append"),
    ("rsa-private", "native-cipher"),
})


def _union(scopes: Dict, key, scope) -> None:
    held = scopes.get(key, frozenset())
    scopes[key] = None if held is None or scope is None \
        else held | frozenset(scope)


def test_sources_match_golden():
    sources: Dict = {}
    for source in default_registry().sources:
        _union(sources, (source.label, source.pattern), source.scope)
    assert sources == GOLDEN_SOURCES


def test_sinks_match_golden():
    sinks: Dict = {}
    for sink in default_registry().sinks:
        for pattern in sink.patterns:
            _union(sinks, (sink.sink_id, pattern, sink.kwargs_only),
                   sink.scope)
    assert sinks == GOLDEN_SINKS


def test_declassifiers_match_golden():
    declassifiers: Dict[str, FrozenSet[str]] = {}
    for declassifier in default_registry().declassifiers:
        declassifiers[declassifier.name] = declassifiers.get(
            declassifier.name, frozenset()) | frozenset(declassifier.patterns)
    assert declassifiers == GOLDEN_DECLASSIFIERS


def test_sanctioned_flows_match_golden():
    assert {(flow.label, flow.sink_id)
            for flow in default_registry().sanctioned} == GOLDEN_SANCTIONED
