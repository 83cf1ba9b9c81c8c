"""SPDR006 trigger fixture #2: policy internals hit the wire codec.

Parsed by the taint self-tests, never imported.
"""

from repro.bgp.policy import gao_rexford_policy
from repro.spider.codec import encode_message


def advertise_policy(customers, providers):
    policy = gao_rexford_policy(customers, providers)
    return encode_message(policy)
