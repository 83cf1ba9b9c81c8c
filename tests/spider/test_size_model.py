"""The §7.6/§7.7 size model against the bytes the codec writes.

E6, E9 and E10 count ``wire_size()``; the wire carries
``len(encode_message(m))``.  EXPERIMENTS.md tabulates both per message
kind and burst size and says why they differ.  This test rebuilds that
table from the code, so neither the code nor the document can move
without the other.
"""

import re
from pathlib import Path

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.hashing import digest
from repro.crypto.keys import make_identity
from repro.crypto.signatures import Signer
from repro.runtime.codec import encode_message
from repro.spider.wire import SpiderAck, SpiderAnnounce, SpiderCommitment, \
    SpiderWithdraw, ack_payload, announce_payload, route_signature_payload, \
    sign_route, withdraw_payload

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
ELECTOR, PRODUCER, CONSUMER, ORIGIN = 64512, 64513, 64514, 64515
T = 1.0
BURSTS = (1, 8, 32)
_ROW = re.compile(r"^\| (announce with σ_P|withdraw|ACK|commitment) "
                  r"\| (\d+) \| ([\d,]+) \| ([\d,]+) \|$", re.MULTILINE)


@pytest.fixture(scope="module")
def signers():
    return (Signer(make_identity(ELECTOR, bits=1024, seed=1)),
            Signer(make_identity(PRODUCER, bits=1024, seed=2)))


def _sizes(message):
    return message.wire_size(), len(encode_message(message))


def _burst_rows(elector, producer, n):
    """Member 0 of an n-message burst of each kind, signed as the
    recorder's outbox signs a chunk: one batch over the route
    signatures, one over the envelopes."""
    routes = [Route(prefix=Prefix.parse(f"10.0.{i}.0/24"),
                    as_path=(ELECTOR, PRODUCER, ORIGIN), neighbor=PRODUCER)
              for i in range(n)]
    underlying = [sign_route(producer, Route(
        prefix=r.prefix, as_path=(PRODUCER, ORIGIN), neighbor=ORIGIN))
        for r in routes]
    route_sigs = elector.sign_batch(
        [route_signature_payload(r) for r in routes])
    announces = elector.sign_batch(
        [announce_payload(ELECTOR, CONSUMER, T, r, u, s)
         for r, u, s in zip(routes, underlying, route_sigs)])
    withdraws = elector.sign_batch(
        [withdraw_payload(ELECTOR, CONSUMER, T, r.prefix) for r in routes])
    hashes = [digest(bytes([i])) for i in range(n)]
    acks = elector.sign_batch(
        [ack_payload(ELECTOR, CONSUMER, T, h) for h in hashes])
    return {
        ("announce with σ_P", n): _sizes(SpiderAnnounce(
            sender=ELECTOR, receiver=CONSUMER, timestamp=T,
            route=routes[0], underlying=underlying[0],
            route_sig=route_sigs[0], envelope=announces[0])),
        ("withdraw", n): _sizes(SpiderWithdraw(
            sender=ELECTOR, receiver=CONSUMER, timestamp=T,
            prefix=routes[0].prefix, envelope=withdraws[0])),
        ("ACK", n): _sizes(SpiderAck(
            acker=ELECTOR, sender=CONSUMER, timestamp=T,
            message_hash=hashes[0], envelope=acks[0])),
    }


def test_experiments_size_table_matches_the_code(signers):
    elector, producer = signers
    measured = {}
    for n in BURSTS:
        measured.update(_burst_rows(elector, producer, n))
    measured[("commitment", 1)] = _sizes(
        SpiderCommitment.make(elector, 60.0, digest(b"root")))
    documented = {
        (kind, int(burst)): (int(model.replace(",", "")),
                             int(real.replace(",", "")))
        for kind, burst, model, real in _ROW.findall(
            EXPERIMENTS.read_text(encoding="utf-8"))}
    assert documented == measured
