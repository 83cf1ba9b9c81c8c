"""Deterministic event-driven AS-level network simulator.

The stand-in for the paper's 11-machine Quagga cluster: simulated time,
links whose bytes are counted by category in the :mod:`repro.obs`
registry (the tcpdump stand-in), and the Figure 5 topology.
"""

from .clock import SimClock, SkewedClock
from .events import Simulator
from .network import BGP_TRAFFIC, Network, TraceEvent
from .topology import FOCUS_AS, INJECTION_AS, Topology, \
    caida_like_topology, degree_distribution, figure5_topology, \
    share_with_degree_at_most

__all__ = [
    "SimClock", "SkewedClock", "Simulator",
    "BGP_TRAFFIC", "Network", "TraceEvent",
    "FOCUS_AS", "INJECTION_AS", "Topology", "caida_like_topology",
    "degree_distribution", "figure5_topology",
    "share_with_degree_at_most",
]
