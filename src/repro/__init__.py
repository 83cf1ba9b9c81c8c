"""repro — reproduction of "Private and Verifiable Interdomain Routing
Decisions" (SIGCOMM 2012).

Top-level packages, bottom layer first: each imports only packages
listed before it (``tests/test_layers.py`` checks the order).

* :mod:`repro.obs` — the metric registry, exporters and cost tables.
* :mod:`repro.crypto` — hashing, RC4 CSPRNG, RSA, key registry.
* :mod:`repro.bgp` — BGP-4 model: prefixes, routes, RIBs, decision process,
  policy engine, speakers.
* :mod:`repro.core` — the VPref algorithm: promises, commitments, bit
  proofs, elector/producer/consumer roles (Section 4).
* :mod:`repro.mtt` — the modified ternary tree (Section 5).
* :mod:`repro.netsim` — deterministic event-driven AS-level simulator.
* :mod:`repro.traces` — synthetic RouteViews-style workloads.
* :mod:`repro.spider` — the SPIDeR companion protocol (Section 6),
  with its wire codec and log entry layout.
* :mod:`repro.store` — the durable segmented log.
* :mod:`repro.runtime` — SPIDeR nodes over real transports.
* :mod:`repro.netreview` — the NetReview baseline used in the evaluation.
* :mod:`repro.faults` — fault injection: primitives, attack classes, the
  Section 7.4 checks and the adversarial campaign engine.
* :mod:`repro.harness` — experiment runners shared by the benchmarks.
* :mod:`repro.analysis` — spiderlint, the repository's static checker.
"""

__version__ = "1.0.0"
