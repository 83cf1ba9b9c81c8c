#!/usr/bin/env python3
"""Evidence forensics (§6.3): proving what was routed when.

With periodic commitments, a signed announcement alone does not prove a
route was live at commitment time — it may have been withdrawn.  This
example walks the paper's evidence-of-import timeline:

    t=10  Alice ANNOUNCEs route r to Bob, Bob ACKs
    t=20  Alice WITHDRAWs r, Bob ACKs
    t=30  commitment under dispute

Alice's (announce, ack) pair is valid evidence for any commitment after
t=10 — until Bob refutes it with Alice's own withdrawal for disputes
after t=20.  The tamper-evident log that stores all of this is also
demonstrated: one edited route breaks the hash chain.

Run:  python examples/forensics.py
"""

import dataclasses

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.keys import KeyRegistry, make_identity
from repro.crypto.signatures import Signer
from repro.spider.evidence import ImportEvidence, import_evidence_valid, \
    refute_import
from repro.spider.log import EntryKind, SpiderLog, TamperError
from repro.spider.wire import SpiderAck, SpiderAnnounce, SpiderWithdraw

PREFIX = Prefix.parse("203.0.113.0/24")
ALICE, BOB = 6, 5


def main():
    registry = KeyRegistry()
    alice = make_identity(ALICE, registry=registry, bits=512, seed=61)
    bob = make_identity(BOB, registry=registry, bits=512, seed=51)
    sign_alice, sign_bob = Signer(alice), Signer(bob)

    route = Route(prefix=PREFIX, as_path=(ALICE, 91), neighbor=ALICE)

    # --- The timeline. ---------------------------------------------------
    announce = SpiderAnnounce.make(sign_alice, receiver=BOB,
                                   timestamp=10.0, route=route,
                                   underlying=None)
    announce_ack = SpiderAck.make(sign_bob, sender=ALICE, timestamp=10.1,
                                  message_hash=announce.message_hash())
    withdraw = SpiderWithdraw.make(sign_alice, receiver=BOB,
                                   timestamp=20.0, prefix=PREFIX)
    withdraw_ack = SpiderAck.make(sign_bob, sender=ALICE, timestamp=20.1,
                                  message_hash=withdraw.message_hash())

    evidence = ImportEvidence(announce=announce, ack=announce_ack)

    print("Dispute: was Alice's route live at Bob at commitment time T?")
    for commit_time in (15.0, 30.0):
        prima_facie = import_evidence_valid(registry, evidence,
                                            commit_time)
        refuted = refute_import(registry, evidence, withdraw,
                                withdraw_ack, commit_time)
        verdict = "live" if prima_facie and not refuted else "not live"
        print(f"  T={commit_time:>4}: evidence valid={prima_facie}, "
              f"refuted by withdrawal={refuted}  ->  route was {verdict}")
    assert import_evidence_valid(registry, evidence, 15.0)
    assert not refute_import(registry, evidence, withdraw, withdraw_ack,
                             15.0)
    assert refute_import(registry, evidence, withdraw, withdraw_ack,
                         30.0)

    # --- The tamper-evident log behind it. -------------------------------
    print("\nBob's log of the exchange:")
    log = SpiderLog()
    log.append(10.1, EntryKind.RECV_ANNOUNCE, announce)
    log.append(10.1, EntryKind.SENT_ACK, announce_ack)
    log.append(20.1, EntryKind.RECV_WITHDRAW, withdraw)
    log.append(20.1, EntryKind.SENT_ACK, withdraw_ack)
    for entry in log:
        print(f"  [{entry.index}] t={entry.timestamp:<5} "
              f"{entry.kind.value:<14} {entry.size_bytes:>4} B "
              f"chain={entry.chain.hex()[:12]}…")
    log.verify_chain()
    print("hash chain verifies.")

    # Bob rewrites history: the route he logged came over another path.
    rerouted = dataclasses.replace(
        announce, route=dataclasses.replace(route, as_path=(ALICE, 92)))
    log._entries[0] = dataclasses.replace(log._entries[0],
                                          payload=rerouted)
    try:
        log.verify_chain()
    except TamperError as error:
        print(f"after re-routing the announce in entry 0: {error}")


if __name__ == "__main__":
    main()
