"""The source/sink/declassifier contract registry (SPIDeR privacy model).

The paper's guarantee (§4–§6) is that routing *policy stays private*
while *decisions stay verifiable*: the only sanctioned ways private
state may reach a public surface are the commitment, proof, and
signature constructions.  This module encodes that boundary as data so
the taint engine (:mod:`repro.analysis.taint`) can enforce it:

* **Sources** introduce taint — reading policy internals, the RC4
  CSPRNG seed/state, commitment randomness, or RSA private material.
* **Sinks** are the public surfaces — wire encoders, evidence-log and
  durable-store appends, obs label values, logging calls, and raised
  exception text.
* **Declassifiers** are the sanctioned one-way constructions — bit
  commitments and Merkle labels (hiding, §5.3), proof construction
  (selective reveal, §6.1), and RSA signing (§6.2).  A value that has
  passed through one is, by design, publishable.

Every contract is declared once, as an entry of
:func:`default_registry` below (the paper-derived model).

A few flows are *sanctioned* as (label, sink) pairs rather than routed
through a declassifier — most importantly the §6.5 storage of the raw
per-commitment seed in the recorder's own log, which is exactly how
the paper achieves 32-byte-per-commitment storage.  Sanctioned flows
are listed with justifications; deleting one makes the corresponding
legitimate flow a finding, which is the regression test's lever for
proving the engine really traverses those paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

# Taint labels used by the built-in model.
LABEL_POLICY = "bgp-policy"
LABEL_RC4 = "rc4-seed"
LABEL_RANDOMNESS = "commit-randomness"
LABEL_RSA = "rsa-private"

# Sink identities.
SINK_CODEC = "codec-encode"
SINK_LOG = "spiderlog-append"
SINK_STORE = "store-append"
SINK_OBS = "obs-label"
SINK_LOGGING = "logging"
SINK_RAISE = "raise"
SINK_NATIVE = "native-cipher"


@dataclass(frozen=True)
class SourceContract:
    """A call or attribute access that introduces taint."""

    label: str
    #: terminal callable name (``call:``) or attribute name (``attr:``).
    pattern: str
    #: module-path prefixes the contract is limited to (None = anywhere).
    scope: Optional[Tuple[str, ...]] = None
    description: str = ""
    section: str = ""

    def in_scope(self, module: str) -> bool:
        return self.scope is None or module.startswith(self.scope)


@dataclass(frozen=True)
class SinkContract:
    """A call whose arguments become public."""

    sink_id: str
    rule_id: str
    #: dotted-suffix patterns matched against the call text, e.g.
    #: ``log.append`` matches ``self.log.append(...)``.
    patterns: Tuple[str, ...]
    scope: Optional[Tuple[str, ...]] = None
    #: check only keyword-argument values (obs label values).
    kwargs_only: bool = False
    description: str = ""
    section: str = ""

    def in_scope(self, module: str) -> bool:
        return self.scope is None or module.startswith(self.scope)


@dataclass(frozen=True)
class DeclassifierContract:
    """A sanctioned one-way construction; its result is publishable."""

    name: str
    #: terminal callable names that perform this declassification.
    patterns: Tuple[str, ...]
    description: str = ""
    section: str = ""


@dataclass(frozen=True)
class SanctionedFlow:
    """An explicitly permitted (label, sink) pair, with justification."""

    label: str
    sink_id: str
    justification: str


@dataclass
class ContractRegistry:
    """Everything the taint engine needs to know about the program."""

    sources: List[SourceContract] = field(default_factory=list)
    sinks: List[SinkContract] = field(default_factory=list)
    declassifiers: List[DeclassifierContract] = field(default_factory=list)
    sanctioned: List[SanctionedFlow] = field(default_factory=list)
    #: Attribute names that are public *by the privacy model* even when
    #: read off an object that carries taint (receiver inheritance would
    #: otherwise make ``identity.asn`` as private as ``identity.
    #: private_key``).  AS numbers and prefixes are the protocol's
    #: public inputs (§3); a timestamp goes out in every signed message
    #: as its nonce and names every broadcast commitment (§6.2), so the
    #: time of a log entry that also holds a seed is not the seed.
    public_attrs: FrozenSet[str] = frozenset({
        "asn", "prefix", "public_key", "signer", "origin", "timestamp"})

    def without_declassifier(self, name: str) -> "ContractRegistry":
        """A copy with one declassifier removed (regression lever)."""
        return ContractRegistry(
            sources=list(self.sources),
            sinks=list(self.sinks),
            declassifiers=[d for d in self.declassifiers
                           if d.name != name],
            sanctioned=list(self.sanctioned),
            public_attrs=self.public_attrs)

    # ------------------------------------------------------------------
    # Matching helpers used by the taint transfer functions.

    def declassifier_names(self) -> FrozenSet[str]:
        return frozenset(
            pattern for d in self.declassifiers for pattern in d.patterns)

    def source_for_call(self, terminal: str,
                        module: str) -> List[SourceContract]:
        wanted = f"call:{terminal}"
        return [s for s in self.sources
                if s.pattern == wanted and s.in_scope(module)]

    def source_for_attr(self, attr: str,
                        module: str) -> List[SourceContract]:
        wanted = f"attr:{attr}"
        return [s for s in self.sources
                if s.pattern == wanted and s.in_scope(module)]

    def sinks_for_call(self, dotted: Optional[str], terminal: str,
                       module: str) -> List[SinkContract]:
        out: List[SinkContract] = []
        for sink in self.sinks:
            if not sink.in_scope(module):
                continue
            for pattern in sink.patterns:
                if _suffix_match(dotted, terminal, pattern):
                    out.append(sink)
                    break
        return out

    def is_sanctioned(self, label: str, sink_id: str) -> bool:
        return any(flow.label == label and flow.sink_id == sink_id
                   for flow in self.sanctioned)


def _suffix_match(dotted: Optional[str], terminal: str,
                  pattern: str) -> bool:
    """``log.append`` matches ``self.log.append``; ``append`` matches
    any call whose terminal name is ``append``."""
    if "." not in pattern:
        return terminal == pattern
    if dotted is None:
        return False
    return dotted == pattern or dotted.endswith("." + pattern)


# ----------------------------------------------------------------------
# The built-in SPIDeR privacy model.

#: Modules whose flows the privacy rules judge.  NetReview is excluded
#: by design — it is the *non-private* baseline whose whole point is
#: full-log disclosure — as are the adversarial test harness and the
#: simulation scaffolding, which deliberately reach into private state.
DATAFLOW_SCOPE: Tuple[str, ...] = (
    "repro/bgp/",
    "repro/core/",
    "repro/crypto/",
    "repro/mtt/",
    "repro/spider/",
    "repro/runtime/",
    "repro/store/",
    "repro/obs/",
)


def default_registry() -> ContractRegistry:
    """The paper-derived contract set for this repository."""
    sources = [
        # §4: routing policy internals are the headline secret.
        SourceContract(LABEL_POLICY, "call:gao_rexford_policy",
                       description="constructed Gao–Rexford policy "
                                   "object (relations + communities)",
                       section="§4"),
        SourceContract(LABEL_POLICY, "attr:relations",
                       scope=("repro/bgp/",),
                       description="neighbor relation table",
                       section="§4"),
        # §6.5 / §7.1: the RC4 CSPRNG seed and state reconstruct every
        # blinding bitstring of a commitment.
        SourceContract(LABEL_RC4, "call:Rc4Csprng",
                       description="seeded CSPRNG instance",
                       section="§6.5"),
        SourceContract(LABEL_RC4, "attr:seed",
                       scope=("repro/crypto/", "repro/mtt/",
                              "repro/spider/"),
                       description="CSPRNG seed bytes", section="§6.5"),
        SourceContract(LABEL_RC4, "attr:_seed",
                       scope=("repro/crypto/",),
                       description="CSPRNG internal seed",
                       section="§6.5"),
        SourceContract(LABEL_RC4, "call:commitment_seed",
                       description="per-commitment derived seed",
                       section="§6.5"),
        SourceContract(LABEL_RC4, "attr:master_seed",
                       scope=("repro/spider/",),
                       description="recorder master secret",
                       section="§6.5"),
        # §5.3: blinding bitstrings drawn for MTT nodes.
        SourceContract(LABEL_RANDOMNESS, "call:bitstring",
                       description="one blinding bitstring",
                       section="§5.3"),
        SourceContract(LABEL_RANDOMNESS, "call:bitstrings",
                       description="batched blinding bitstrings",
                       section="§5.3"),
        SourceContract(LABEL_RANDOMNESS, "attr:blinding",
                       scope=("repro/mtt/", "repro/spider/"),
                       description="bit-node blinding", section="§5.3"),
        SourceContract(LABEL_RANDOMNESS, "attr:randomness",
                       scope=("repro/mtt/", "repro/spider/"),
                       description="dummy-node randomness",
                       section="§5.3"),
        # §7.1: RSA private material.
        SourceContract(LABEL_RSA, "call:generate_keypair",
                       description="fresh RSA private key",
                       section="§7.1"),
        SourceContract(LABEL_RSA, "attr:private_key",
                       description="RSA private key attribute",
                       section="§7.1"),
        *(SourceContract(LABEL_RSA, f"attr:{component}",
                         scope=("repro/crypto/rsa.py",),
                         description="RSA private exponent or CRT "
                                     "component",
                         section="§7.1")
          for component in ("d", "p", "q", "d_p", "d_q", "q_inv")),
    ]
    sinks = [
        SinkContract(SINK_CODEC, "SPDR006",
                     patterns=("encode_message", "encode_frames",
                               "encode_frame"),
                     description="wire bytes leave the node",
                     section="§6.2"),
        SinkContract(SINK_LOG, "SPDR006",
                     patterns=("log.append",),
                     description="evidence-log append (disclosed to "
                                 "auditors on demand)",
                     section="§6.4"),
        SinkContract(SINK_STORE, "SPDR006",
                     patterns=("store.append", "seglog.append"),
                     scope=("repro/store/", "repro/spider/",
                            "repro/runtime/"),
                     description="durable on-disk store append",
                     section="§6.5"),
        SinkContract(SINK_OBS, "SPDR006",
                     patterns=("counter", "gauge", "histogram", "span"),
                     kwargs_only=True,
                     description="obs label values are exported",
                     section="§7.5"),
        SinkContract(SINK_LOGGING, "SPDR006",
                     patterns=("logging.info", "logging.warning",
                               "logging.error", "logging.debug",
                               "logger.info", "logger.warning",
                               "logger.error", "logger.debug",
                               "logger.exception"),
                     description="process log output", section="§7"),
        SinkContract(SINK_NATIVE, "SPDR006",
                     patterns=("ARC4", "Cipher", "RSAPrivateNumbers"),
                     description="key material handed to a C cipher or "
                                 "RSA key object (OpenSSL memory Python "
                                 "does not own)",
                     section="§7.1"),
    ]
    declassifiers = [
        DeclassifierContract(
            "bit-commitment", ("bit_commitment", "bit_commitments"),
            description="H(b||x) hides the bit and the blinding",
            section="§5.3"),
        DeclassifierContract(
            "merkle-label", ("compute_label", "digest", "digest_concat",
                             "digest_fields", "digest_iter", "sha512"),
            description="Merkle labels and hash digests are one-way",
            section="§5.3"),
        DeclassifierContract(
            "proof-construction", ("generate_proof", "generate_proofs",
                                   "MttBitProof", "SpiderBitProof"),
            description="bit proofs selectively reveal exactly the "
                        "blinding/siblings the protocol publishes",
            section="§6.1"),
        DeclassifierContract(
            "rsa-sign", ("sign",),
            description="signatures over public payloads",
            section="§6.2"),
        DeclassifierContract(
            "public-key-derivation", ("public_key",),
            description="the public half of a keypair is public by "
                        "definition (Assumption 5: keys are known to "
                        "everyone)",
            section="§3"),
        DeclassifierContract(
            "policy-decision", ("apply",),
            description="the import/export *decision* is public; only "
                        "the deliberation is private",
            section="§4"),
        DeclassifierContract(
            "constant-time-eq", ("constant_time_eq",),
            description="boolean verdict of a constant-time comparison",
            section="§6.1"),
        DeclassifierContract(
            "census", ("census",),
            description="dummy padding makes node counts a function of "
                        "public shape only",
            section="§5.3"),
    ]
    sanctioned = [
        SanctionedFlow(
            LABEL_RC4, SINK_LOG,
            justification="§6.5: the recorder logs the 20-byte "
                          "per-commitment seed so proofs can be "
                          "reconstructed; the log is the recorder's own "
                          "trusted storage and the seed is never put on "
                          "the wire"),
        SanctionedFlow(
            LABEL_RC4, SINK_STORE,
            justification="§6.5: the durable store persists the same "
                          "seed entry the in-memory log holds "
                          "(crash recovery must reproduce proofs)"),
        SanctionedFlow(
            LABEL_RC4, SINK_NATIVE,
            justification="§7.1: the prototype keys a library RC4 with "
                          "the seed; the C object stays in-process and "
                          "the keystream it returns is as private as "
                          "the seed (taint flows on through it)"),
        SanctionedFlow(
            LABEL_RSA, SINK_NATIVE,
            justification="§7.1: the prototype signs with a library "
                          "RSA-1024; each private key is loaded into one "
                          "OpenSSL key object that stays in-process, and "
                          "only its signatures leave (the rsa-sign "
                          "declassifier)"),
    ]
    return ContractRegistry(sources=sources, sinks=sinks,
                            declassifiers=declassifiers,
                            sanctioned=sanctioned)


#: Calls that neither propagate nor introduce taint (structure probes).
NEUTRAL_CALLS = frozenset({
    "len", "type", "isinstance", "issubclass", "bool", "id",
    "callable", "hasattr",
})
