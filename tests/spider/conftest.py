"""Shared fixtures for the SPIDeR tests: a small converged deployment."""

import pytest

from repro.bgp.prefix import Prefix
from repro.netsim.network import Network, TraceEvent
from repro.netsim.topology import FOCUS_AS, INJECTION_AS, figure5_topology
from repro.spider.config import SpiderConfig
from repro.runtime.node_runtime import SpiderDeployment
from repro.spider.node import evaluation_scheme

FEED = 65000
P = Prefix.parse("203.0.113.0/24")
Q = Prefix.parse("198.51.100.0/24")
ORIGINATED = Prefix.parse("192.0.2.0/24")


def converged_deployment():
    """Figure 5 network + SPIDeR, converged on three prefixes."""
    network = Network(figure5_topology())
    deployment = SpiderDeployment(
        network, scheme=evaluation_scheme(10),
        config=SpiderConfig(commit_interval=60.0))
    network.attach_feed(INJECTION_AS, feed_asn=FEED)
    network.schedule_trace(FEED, [
        TraceEvent(1.0, P, (FEED, 4000)),
        TraceEvent(1.5, Q, (FEED, 4001, 4002)),
    ])
    network.originate(9, ORIGINATED)
    network.settle()
    return network, deployment


@pytest.fixture(scope="module")
def deployment():
    """One converged deployment shared by a module's tests."""
    return converged_deployment()


@pytest.fixture
def fresh_deployment():
    """A converged deployment of the test's own, for a test that runs
    the simulator on (the shared one's clock is moved by hand)."""
    return converged_deployment()
