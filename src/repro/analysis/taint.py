"""Interprocedural privacy-taint analysis (rules SPDR006 and SPDR008).

The engine runs a forward taint analysis over every function's CFG and
stitches functions together with call summaries:

* Each function is analyzed with its parameters carrying *pseudo*
  taints (``param:i``).  Where a pseudo taint reaches a sink or the
  return value, that fact goes into the function's
  :class:`Summary` instead of a finding.
* Call sites instantiate callee summaries: a tainted argument inherits
  the callee's param→sink chains (producing a full source→sink path
  trace) and param→return propagation.
* Real taints are introduced by the source contracts of
  :mod:`repro.analysis.contracts`, killed by declassifier calls, and
  reported when they reach a sink contract that is not explicitly
  sanctioned for that label.

The analysis is flow-sensitive within a function (the CFG worklist of
:class:`repro.analysis.dataflow.ForwardSolver`, which SPDR007 runs on
too) and summary-based across functions, iterated to a global
fixpoint.  Object attributes are handled pragmatically: ``self.x`` is
tracked as a local key within one function, attribute reads inherit
the receiver object's taint, and cross-method attribute state is
covered by ``attr:`` source contracts rather than a heap model.  Nested
function bodies are not traversed (none of the guarded modules hide
secrets there).

Findings anchor at the *sink* line — that is where a suppression
comment must sit — and carry the whole path in ``Finding.trace``
(printed under the finding, and a list in ``--format json``).
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import time

from .callgraph import FunctionInfo, Program, load_program
from .cfg import Block, Cfg, build_cfg
from .contracts import (
    DATAFLOW_SCOPE,
    NEUTRAL_CALLS,
    SINK_RAISE,
    ContractRegistry,
    SinkContract,
    default_registry,
)
from .dataflow import ForwardSolver
from .engine import AnalysisResult, dotted_name, finalize_findings, \
    parse_suppressions, terminal_name
from .findings import Finding

#: Hard cap on path-trace length; extension past it is a no-op.
MAX_TRACE = 10

_PARAM_PREFIX = "param:"


@dataclass(frozen=True)
class Taint:
    """One taint fact: a label plus the path that produced it."""

    label: str
    trace: Tuple[str, ...] = ()

    @property
    def is_pseudo(self) -> bool:
        return self.label.startswith(_PARAM_PREFIX)

    def extended(self, step: str) -> "Taint":
        if len(self.trace) >= MAX_TRACE:
            return self
        return Taint(self.label, self.trace + (step,))


#: label → the (single, shortest-trace) Taint carrying it.
TaintMap = Dict[str, Taint]

#: variable name → TaintMap.
Env = Dict[str, TaintMap]


def _merge(into: TaintMap, new: TaintMap) -> TaintMap:
    """Union keeping the lexicographically-shortest trace per label."""
    if not new:
        return into
    if not into:
        return dict(new)
    out = dict(into)
    for label, taint in new.items():
        old = out.get(label)
        if old is None or (len(taint.trace), taint.trace) < \
                (len(old.trace), old.trace):
            out[label] = taint
    return out


def _env_join(a: Env, b: Env) -> Env:
    if not a:
        return {k: dict(v) for k, v in b.items()}
    out = {k: dict(v) for k, v in a.items()}
    for key, tmap in b.items():
        out[key] = _merge(out.get(key, {}), tmap)
    return out


@dataclass(frozen=True)
class SinkHit:
    """A (possibly summarized) arrival of taint at a sink."""

    sink_id: str
    rule_id: str
    module: str
    line: int
    column: int
    detail: str
    trace_suffix: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Summary:
    """Interprocedural behavior of one function."""

    param_to_return: FrozenSet[int] = frozenset()
    #: fresh source labels reaching the return value, with their traces.
    source_return: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    #: param index → sink chains a taint on that param reaches.
    param_sinks: Tuple[Tuple[int, SinkHit], ...] = ()


_EMPTY_SUMMARY = Summary()

_SOLVER: ForwardSolver[Env] = ForwardSolver(_env_join, operator.eq)


class TaintAnalysis:
    """Whole-program driver producing SPDR006/SPDR008 findings."""

    def __init__(self, program: Program,
                 contracts: ContractRegistry,
                 scope: Tuple[str, ...] = DATAFLOW_SCOPE,
                 max_global_passes: int = 8) -> None:
        self.program = program
        self.contracts = contracts
        self.scope = scope
        self.max_global_passes = max_global_passes
        self.summaries: Dict[str, Summary] = {}
        self._cfgs: Dict[str, Cfg] = {}
        self._declassifiers = contracts.declassifier_names()

    # ------------------------------------------------------------------

    def run(self) -> List[Finding]:
        """Fixpoint over summaries, then one finding-emission sweep."""
        order = sorted(self.program.functions)
        for _ in range(self.max_global_passes):
            changed = False
            for qual in order:
                fn = self.program.functions[qual]
                summary, _hits = self._analyze(fn)
                if self.summaries.get(qual, _EMPTY_SUMMARY) != summary:
                    self.summaries[qual] = summary
                    changed = True
            if not changed:
                break
        findings: Dict[Tuple[str, str, int, str, str], Finding] = {}
        for qual in order:
            fn = self.program.functions[qual]
            if not fn.module.startswith(self.scope):
                continue
            _summary, hits = self._analyze(fn)
            for taint, hit in hits:
                key = (hit.rule_id, hit.module, hit.line, taint.label,
                       hit.sink_id)
                if key in findings:
                    continue
                findings[key] = self._finding(taint, hit)
        return sorted(findings.values(),
                      key=lambda f: (f.path, f.line, f.column, f.rule_id))

    def _finding(self, taint: Taint, hit: SinkHit) -> Finding:
        trace = taint.trace + hit.trace_suffix
        if hit.rule_id == "SPDR008":
            message = (f"tainted value ({taint.label}) interpolated "
                       f"into raised exception text; {hit.detail}")
        else:
            message = (f"private value ({taint.label}) reaches "
                       f"{hit.sink_id} without a declassifier; "
                       f"{hit.detail}")
        return Finding(rule_id=hit.rule_id, path=hit.module,
                       line=hit.line, column=hit.column,
                       message=message, trace=trace)

    # ------------------------------------------------------------------

    def _cfg(self, fn: FunctionInfo) -> Cfg:
        cfg = self._cfgs.get(fn.qualname)
        if cfg is None:
            cfg = build_cfg(fn.node)
            self._cfgs[fn.qualname] = cfg
        return cfg

    def _analyze(self, fn: FunctionInfo
                 ) -> Tuple[Summary, List[Tuple[Taint, SinkHit]]]:
        """Intra-procedural solve + collection sweep for one function."""
        walker = _FunctionWalker(self, fn)
        cfg = self._cfg(fn)
        init: Env = {}
        for index, param in enumerate(fn.params):
            init[param] = {f"{_PARAM_PREFIX}{index}":
                           Taint(f"{_PARAM_PREFIX}{index}")}
        inputs = _SOLVER.solve(cfg, walker.transfer, init=init, bottom={})
        # Converged: one sweep with collection enabled.
        walker.collecting = True
        for bid in cfg.rpo():
            walker.transfer(cfg.blocks[bid], inputs[bid])
        return walker.summary(), walker.real_hits


class _FunctionWalker:
    """Transfer functions and expression evaluation for one function."""

    def __init__(self, analysis: TaintAnalysis,
                 fn: FunctionInfo) -> None:
        self.analysis = analysis
        self.fn = fn
        self.collecting = False
        self.real_hits: List[Tuple[Taint, SinkHit]] = []
        #: (param index, sink location) → shortest-suffix SinkHit.  Keyed
        #: by location, not by trace: transitive summary composition
        #: would otherwise mint a new entry per distinct path and blow
        #: up combinatorially across global passes.
        self._param_sinks: Dict[
            Tuple[int, str, str, str, int, int], SinkHit] = {}
        self._param_returns: set[int] = set()
        self._source_returns: TaintMap = {}
        self._resolution: Dict[int, List[FunctionInfo]] = {}

    # -- summary assembly ----------------------------------------------

    def summary(self) -> Summary:
        source_return = tuple(sorted(
            (label, taint.trace)
            for label, taint in self._source_returns.items()))
        param_sinks = tuple(sorted(
            ((key[0], hit) for key, hit in self._param_sinks.items()),
            key=lambda pair: (pair[0], pair[1].module, pair[1].line,
                              pair[1].sink_id)))
        return Summary(param_to_return=frozenset(self._param_returns),
                       source_return=source_return,
                       param_sinks=param_sinks)

    def _record_hit(self, taint: Taint, hit: SinkHit) -> None:
        if taint.is_pseudo:
            index = int(taint.label[len(_PARAM_PREFIX):])
            suffix = taint.trace + hit.trace_suffix
            key = (index, hit.sink_id, hit.rule_id, hit.module,
                   hit.line, hit.column)
            old = self._param_sinks.get(key)
            if old is None or (len(suffix), suffix) < \
                    (len(old.trace_suffix), old.trace_suffix):
                self._param_sinks[key] = SinkHit(
                    hit.sink_id, hit.rule_id, hit.module, hit.line,
                    hit.column, hit.detail, suffix)
            return
        if self.analysis.contracts.is_sanctioned(taint.label,
                                                 hit.sink_id):
            return
        if self.collecting:
            self.real_hits.append((taint, hit))

    def _record_return(self, taints: TaintMap) -> None:
        for label, taint in taints.items():
            if taint.is_pseudo:
                self._param_returns.add(
                    int(label[len(_PARAM_PREFIX):]))
            else:
                self._source_returns = _merge(
                    self._source_returns, {label: taint})

    # -- statement transfer --------------------------------------------

    def transfer(self, block: Block, env_in: Env) -> Env:
        env = {k: dict(v) for k, v in env_in.items()}
        for stmt in block.stmts:
            self._stmt(stmt, env)
        return env

    def _stmt(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, ast.Assign):
            taints = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, taints, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            taints = self._eval(stmt.value, env)
            existing = self._eval(stmt.target, env)
            self._bind(stmt.target, _merge(existing, taints), env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._record_return(self._eval(stmt.value, env))
        elif isinstance(stmt, ast.Raise):
            self._raise(stmt, env)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._eval(stmt.iter, env), env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taints, env)
        elif isinstance(stmt, ast.Match):
            self._eval(stmt.subject, env)
        elif isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                env[stmt.name] = {}
        elif isinstance(stmt, (ast.Assert, ast.Delete)):
            pass  # no taint consequence tracked

    def _bind(self, target: ast.expr, taints: TaintMap,
              env: Env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = dict(taints)
        elif isinstance(target, ast.Attribute):
            dotted = dotted_name(target)
            if dotted is not None and dotted.startswith("self."):
                env[dotted] = _merge(env.get(dotted, {}), taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, taints, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taints, env)
        elif isinstance(target, ast.Subscript):
            # Storing into a container taints the container.
            base = target.value
            if isinstance(base, ast.Name):
                env[base.id] = _merge(env.get(base.id, {}), taints)

    # -- exception hygiene (SPDR008) -----------------------------------

    def _raise(self, stmt: ast.Raise, env: Env) -> None:
        if stmt.exc is None:
            return
        exc = stmt.exc
        args: Sequence[ast.expr]
        if isinstance(exc, ast.Call):
            args = list(exc.args) + [kw.value for kw in exc.keywords]
        else:
            args = [exc]
        for arg in args:
            for interpolated, what in self._interpolations(arg):
                taints = self._eval(interpolated, env)
                for taint in taints.values():
                    if self.analysis.contracts.is_sanctioned(
                            taint.label, SINK_RAISE):
                        continue
                    self._record_hit(taint, SinkHit(
                        SINK_RAISE, "SPDR008", self.fn.module,
                        stmt.lineno, stmt.col_offset,
                        f"{what} in raise"))

    @staticmethod
    def _interpolations(arg: ast.expr
                        ) -> List[Tuple[ast.expr, str]]:
        """Expressions interpolated into an exception message."""
        out: List[Tuple[ast.expr, str]] = []
        for node in ast.walk(arg):
            if isinstance(node, ast.FormattedValue):
                out.append((node.value, "f-string interpolation"))
            elif isinstance(node, ast.BinOp) and \
                    isinstance(node.op, ast.Mod):
                out.append((node.right, "%-format interpolation"))
            elif isinstance(node, ast.Call):
                name = terminal_name(node.func)
                if name == "format":
                    for sub in list(node.args) + \
                            [kw.value for kw in node.keywords]:
                        out.append((sub, ".format() interpolation"))
        return out

    # -- expression evaluation -----------------------------------------

    def _eval(self, expr: ast.expr, env: Env) -> TaintMap:
        if isinstance(expr, ast.Name):
            return dict(env.get(expr.id, {}))
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr, env)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.Constant):
            return {}
        if isinstance(expr, (ast.Lambda,)):
            return {}
        if isinstance(expr, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp, ast.DictComp)):
            return self._eval_comprehension(expr, env)
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, env)
            return _merge(self._eval(expr.body, env),
                          self._eval(expr.orelse, env))
        # Structural default: union over child expressions.
        out: TaintMap = {}
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out = _merge(out, self._eval(child, env))
            elif isinstance(child, ast.keyword):
                out = _merge(out, self._eval(child.value, env))
        return out

    def _eval_attribute(self, expr: ast.Attribute,
                        env: Env) -> TaintMap:
        out: TaintMap = {}
        dotted = dotted_name(expr)
        if dotted is not None and dotted.startswith("self."):
            out = _merge(out, env.get(dotted, {}))
        for contract in self.analysis.contracts.source_for_attr(
                expr.attr, self.fn.module):
            step = (f"{self.fn.module}:{expr.lineno} source "
                    f"{contract.label}: read of .{expr.attr}")
            out = _merge(out, {contract.label:
                               Taint(contract.label, (step,))})
        # An attribute of a tainted object is tainted — unless the
        # privacy model declares the attribute public (identity.asn is
        # public even though identity.private_key is not).  The
        # receiver is still evaluated so sinks inside it are seen.
        receiver = self._eval(expr.value, env)
        if expr.attr not in self.analysis.contracts.public_attrs:
            out = _merge(out, receiver)
        return out

    def _eval_comprehension(self, expr: ast.expr, env: Env) -> TaintMap:
        assert isinstance(expr, (ast.ListComp, ast.SetComp,
                                 ast.GeneratorExp, ast.DictComp))
        inner = {k: dict(v) for k, v in env.items()}
        for gen in expr.generators:
            taints = self._eval(gen.iter, inner)
            self._bind(gen.target, taints, inner)
            for cond in gen.ifs:
                self._eval(cond, inner)
        if isinstance(expr, ast.DictComp):
            return _merge(self._eval(expr.key, inner),
                          self._eval(expr.value, inner))
        return self._eval(expr.elt, inner)

    # -- calls ----------------------------------------------------------

    def _eval_call(self, call: ast.Call, env: Env) -> TaintMap:
        dotted = dotted_name(call.func)
        terminal = terminal_name(call.func)
        arg_taints: List[TaintMap] = [
            self._eval(arg, env) for arg in call.args]
        kw_taints: List[Tuple[Optional[str], TaintMap]] = [
            (kw.arg, self._eval(kw.value, env))
            for kw in call.keywords]
        receiver: TaintMap = {}
        if isinstance(call.func, ast.Attribute):
            receiver = self._eval(call.func.value, env)

        # 1. Declassifiers kill every incoming taint.
        if terminal is not None and \
                terminal in self.analysis._declassifiers:
            return {}

        # 2. Neutral structure probes carry nothing.
        if terminal in NEUTRAL_CALLS:
            return {}

        out: TaintMap = {}

        # 3. Sink contracts: tainted arguments are findings.
        if terminal is not None:
            for sink in self.analysis.contracts.sinks_for_call(
                    dotted, terminal, self.fn.module):
                self._check_sink(sink, call, arg_taints, kw_taints)

        # 4. Source contracts introduce fresh taint.
        if terminal is not None:
            for contract in self.analysis.contracts.source_for_call(
                    terminal, self.fn.module):
                step = (f"{self.fn.module}:{call.lineno} source "
                        f"{contract.label}: call to {terminal}()")
                out = _merge(out, {contract.label:
                                   Taint(contract.label, (step,))})

        # 5. Known callees: instantiate their summaries.
        callees = self._resolve(call)
        for callee in callees:
            out = _merge(out, self._apply_summary(
                callee, call, arg_taints, kw_taints, receiver))

        # 6. Unknown calls propagate conservatively.
        if not callees:
            for taints in arg_taints:
                out = _merge(out, taints)
            for _name, taints in kw_taints:
                out = _merge(out, taints)
            out = _merge(out, receiver)
        return out

    def _resolve(self, call: ast.Call) -> List[FunctionInfo]:
        key = id(call)
        cached = self._resolution.get(key)
        if cached is None:
            cached = self.analysis.program.resolve_call(call, self.fn)
            self._resolution[key] = cached
        return cached

    def _check_sink(self, sink: SinkContract, call: ast.Call,
                    arg_taints: List[TaintMap],
                    kw_taints: List[Tuple[Optional[str], TaintMap]]
                    ) -> None:
        checked: List[TaintMap] = []
        if not sink.kwargs_only:
            checked.extend(arg_taints)
        checked.extend(taints for _name, taints in kw_taints)
        text = dotted_name(call.func) or terminal_name(call.func) or "?"
        for taints in checked:
            for taint in taints.values():
                self._record_hit(taint, SinkHit(
                    sink.sink_id, sink.rule_id, self.fn.module,
                    call.lineno, call.col_offset,
                    f"argument of {text}()"))

    def _apply_summary(self, callee: FunctionInfo, call: ast.Call,
                       arg_taints: List[TaintMap],
                       kw_taints: List[Tuple[Optional[str], TaintMap]],
                       receiver: TaintMap) -> TaintMap:
        summary = self.analysis.summaries.get(callee.qualname,
                                              _EMPTY_SUMMARY)
        # Map call-site values onto callee parameter indices.
        bound: Dict[int, TaintMap] = {}
        offset = 0
        if callee.cls is not None and callee.params and \
                callee.params[0] in ("self", "cls") and \
                isinstance(call.func, ast.Attribute):
            bound[0] = receiver
            offset = 1
        for position, taints in enumerate(arg_taints):
            bound[position + offset] = taints
        for name, taints in kw_taints:
            if name is not None and name in callee.params:
                bound[callee.params.index(name)] = taints

        out: TaintMap = {}
        site = (f"{self.fn.module}:{call.lineno} via "
                f"{callee.display}()")
        for index, taints in bound.items():
            if not taints:
                continue
            if index in summary.param_to_return:
                for label, taint in taints.items():
                    out = _merge(out, {label: taint.extended(site)})
            for hit_index, hit in summary.param_sinks:
                if hit_index != index:
                    continue
                for taint in taints.values():
                    self._record_hit(taint.extended(site), hit)
        for label, trace in summary.source_return:
            returned = Taint(label, trace).extended(
                f"{self.fn.module}:{call.lineno} returned by "
                f"{callee.display}()")
            out = _merge(out, {label: returned})
        return out


# ----------------------------------------------------------------------
# Whole-program driver


def build_registry(program: Program) -> ContractRegistry:
    """The default contract set plus the program's docstring markers."""
    registry = default_registry()
    qualname_module = {qual: fn.module
                       for qual, fn in program.functions.items()}
    registry.merge_markers(program.doc_markers(), qualname_module)
    return registry


def analyze_paths_dataflow(
        paths: Sequence[str],
        contracts: Optional[ContractRegistry] = None,
        scope: Tuple[str, ...] = DATAFLOW_SCOPE,
        stats: Optional[Dict[str, float]] = None) -> AnalysisResult:
    """Run SPDR006/SPDR008 over a source tree.

    Mirrors ``Engine.analyze_paths``: findings honor the same per-line
    suppression comments, anchored at the sink line.  ``stats``, when
    given, receives phase timings.
    """
    t0 = time.perf_counter()
    program = load_program(paths)
    t1 = time.perf_counter()
    registry = contracts if contracts is not None \
        else build_registry(program)
    analysis = TaintAnalysis(program, registry, scope=scope)
    raw = analysis.run()
    t2 = time.perf_counter()
    if stats is not None:
        stats["parse_seconds"] = t1 - t0
        stats["solve_seconds"] = t2 - t1
        stats["functions"] = float(len(program.functions))
    result = AnalysisResult(files_analyzed=len(program.modules))
    result.parse_errors.extend(program.parse_errors)
    silenced_by_path = {
        path: parse_suppressions(module.lines)
        for path, module in program.modules.items()}
    finalize_findings(raw, silenced_by_path, result)
    return result
