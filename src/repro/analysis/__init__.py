"""repro.analysis — spiderlint, the project's static-analysis suite.

SPIDeR's safety argument rests on invariants tests can only spot-check:
deterministic paths stay seeded, decoders fail closed, digest
comparisons run in constant time, the metrics schema stays canonical,
wire dataclasses stay frozen, private policy state never reaches a
public sink unblinded.  This package enforces them statically on every
commit — the cheap analogue of IVeri's SMT verifier for our pure-Python
codebase.

Two engines share one finding path
(:func:`repro.analysis.engine.finalize_findings`), and an inline
``# spiderlint: disable=SPDRnnn`` comment is the only way to accept a
finding:

* the **lint** engine (:class:`repro.analysis.engine.Engine`) runs the
  per-file AST/CFG rules SPDR001–005 and SPDR007
  (:func:`repro.analysis.rules.all_rules`);
* the **dataflow** engine
  (:func:`repro.analysis.taint.analyze_paths_dataflow`) builds a
  whole-program call graph (:mod:`repro.analysis.callgraph`), per-
  function CFGs (:mod:`repro.analysis.cfg`), and runs an
  interprocedural taint analysis (:mod:`repro.analysis.taint`, on the
  worklist solver of :mod:`repro.analysis.dataflow`) against
  the privacy contract registry
  (:mod:`repro.analysis.contracts`) — rules SPDR006 and SPDR008.

``python -m repro.analysis`` is the CLI (see
:mod:`repro.analysis.cli`).
"""

from __future__ import annotations

from .callgraph import Program, load_program
from .cfg import Cfg, build_cfg
from .contracts import ContractRegistry, default_registry
from .engine import AnalysisResult, Engine, Rule, RuleContext
from .findings import Finding
from .rules import all_rules
from .taint import TaintAnalysis, analyze_paths_dataflow

__all__ = [
    "AnalysisResult",
    "Cfg",
    "ContractRegistry",
    "Engine",
    "Finding",
    "Program",
    "Rule",
    "RuleContext",
    "TaintAnalysis",
    "all_rules",
    "analyze_paths_dataflow",
    "build_cfg",
    "default_registry",
    "load_program",
]
