"""Bit-width interval verifier for the MAC datapath.

The paper's fault-pattern determinism rests on an arithmetic contract:
INT8×INT8 products, widened into the INT32 accumulator, can never
overflow the multiplier — the worst product is ``(-128)·(-128) = 16384``,
six orders of magnitude inside INT32 — and the *accumulator* is the only
place wraparound is architecturally allowed. This module proves that
contract statically, by abstract interpretation over two's-complement
intervals of the expressions driving the named MAC signals
(:mod:`repro.systolic.mac`, :mod:`repro.systolic.pe`) and the masking
arithmetic of the fault overlay (:mod:`repro.faults`).

The analysis is deliberately local and syntactic: each function is
interpreted in isolation over the domain of integer intervals
(:class:`Interval`, with ``None`` bounds meaning unbounded), with three
sources of precision:

* ``dtype.wrap(x)`` — the result is always within the dtype's range; and
  when ``x`` is a *product* (``ast.Mult``), the wrap must be **lossless**
  (``interval(x) ⊆ range(dtype)``): a multiplier that relies on
  wraparound is a widening bug, the exact class of silent corruption
  this pass exists to catch. Wrap of a *sum* may wrap — that is the
  accumulator contract.
* ``self._drive(SIGNAL_X, expr, cycle)`` — an obligation that
  ``interval(expr) ⊆ range(dtype(SIGNAL_X))`` per the signal registry
  (``_SIGNAL_DTYPES`` in ``repro.faults.sites``, read from the analysed
  tree so fixtures carry their own registry); the *result* is the
  signal dtype's full range, because a stuck-at fault may force any
  in-range value.
* fault masking — ``apply()`` methods in :mod:`repro.faults` must be
  *range-closed*: every value they return is either the unmodified
  input or the result of a range-preserving dtype method
  (``force_bit``/``flip_bit``/``wrap``/…), so a fault can corrupt a
  signal but never widen it.

Rules
-----
``interval-escape``
    A signal drive or product wrap whose interval cannot be proven to
    stay within the declared signal width.
``mask-closure``
    A fault model's ``apply()`` may return a value outside the signal's
    dtype range.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.checks.engine import Finding, ProjectRule, Severity
from repro.checks.graph import FunctionInfo, ProjectGraph
from repro.datatypes import INT8, INT16, INT32, UINT8, IntType

__all__ = [
    "DTYPES_BY_NAME",
    "RANGE_CLOSED_METHODS",
    "DRIVE_METHODS",
    "DATAPATH_PREFIXES",
    "FAULT_PREFIX",
    "REGISTRY_MODULE",
    "TOP",
    "Interval",
    "DriveProof",
    "verify_intervals",
    "IntervalEscapeRule",
    "MaskClosureRule",
    "INTERVAL_RULES",
]

#: IntType constants the analysis recognises by (imported) name.
DTYPES_BY_NAME: dict[str, IntType] = {
    "INT8": INT8,
    "INT16": INT16,
    "INT32": INT32,
    "UINT8": UINT8,
}

#: IntType methods whose result is always within the dtype's range.
RANGE_CLOSED_METHODS = frozenset(
    {"wrap", "clamp", "force_bit", "flip_bit", "from_unsigned", "add", "mul"}
)

#: Names of the signal-driving method on datapath classes.
DRIVE_METHODS = frozenset({"_drive", "drive"})

#: Modules whose arithmetic the interval pass interprets.
DATAPATH_PREFIXES = ("repro.datatypes", "repro.systolic")

#: Modules whose apply() methods the mask-closure pass checks.
FAULT_PREFIX = "repro.faults"

#: The module holding the signal/dtype registry.
REGISTRY_MODULE = "repro.faults.sites"


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; a ``None`` bound means unbounded."""

    lo: int | None
    hi: int | None

    @property
    def is_top(self) -> bool:
        return self.lo is None or self.hi is None

    def __add__(self, other: "Interval") -> "Interval":
        if self.is_top or other.is_top:
            return TOP
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        if self.is_top or other.is_top:
            return TOP
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        if self.is_top or other.is_top:
            return TOP
        corners = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return Interval(min(corners), max(corners))

    def __neg__(self) -> "Interval":
        if self.is_top:
            return TOP
        return Interval(-self.hi, -self.lo)

    def join(self, other: "Interval") -> "Interval":
        """The smallest interval containing both (lattice join)."""
        if self.is_top or other.is_top:
            return TOP
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def within(self, dtype: IntType) -> bool:
        """Whether every value of this interval fits ``dtype`` losslessly."""
        if self.is_top:
            return False
        return self.lo >= dtype.min_value and self.hi <= dtype.max_value

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)


def _dtype_range(dtype: IntType) -> Interval:
    return Interval(dtype.min_value, dtype.max_value)


def _dtype_name(dtype: IntType) -> str:
    for name, known in DTYPES_BY_NAME.items():
        if known == dtype:
            return name
    return repr(dtype)


@dataclass(frozen=True)
class DriveProof:
    """One statically discharged signal-drive obligation."""

    signal: str
    dtype_name: str
    interval: Interval
    qualname: str
    line: int


class _SignalRegistry:
    """``SIGNAL_*`` constants and their dtypes, read from the analysed tree.

    Parsing the registry out of the graph (rather than importing the real
    :mod:`repro.faults.sites`) keeps the pass hermetic: fixture trees get
    verified against their own registry, and a tree whose registry drifts
    is caught by the ``dataclass-contract`` rule, not silently trusted.
    """

    def __init__(self, graph: ProjectGraph) -> None:
        self.signal_names: dict[str, str] = {}  # SIGNAL_A_REG -> "a_reg"
        self.signal_dtypes: dict[str, IntType] = {}  # SIGNAL_A_REG -> INT8
        module = graph.modules.get(REGISTRY_MODULE)
        if module is None:
            return
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            if not isinstance(target, ast.Name):
                continue
            if (
                target.id.startswith("SIGNAL_")
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                self.signal_names[target.id] = value.value
            elif target.id == "_SIGNAL_DTYPES" and isinstance(value, ast.Dict):
                for key, entry in zip(value.keys, value.values):
                    if (
                        isinstance(key, ast.Name)
                        and isinstance(entry, ast.Name)
                        and entry.id in DTYPES_BY_NAME
                    ):
                        self.signal_dtypes[key.id] = DTYPES_BY_NAME[entry.id]

    def resolve(self, expr: ast.expr) -> str | None:
        """The ``SIGNAL_*`` symbol an expression names, if any."""
        if isinstance(expr, ast.Name) and expr.id in self.signal_names:
            return expr.id
        if isinstance(expr, ast.Attribute) and expr.attr in self.signal_names:
            return expr.attr
        return None


def _class_dtype_attrs(
    graph: ProjectGraph, class_qual: str
) -> dict[str, IntType]:
    """Attribute -> IntType for a datapath class.

    Recognises ``self.x = param`` where the parameter's *default* is a
    known dtype constant (``input_dtype: IntType = INT8``), direct
    ``self.x = INT8`` assignments, and annotated class-level fields with
    dtype-constant values.
    """
    cls = graph.classes.get(class_qual)
    if cls is None:
        return {}
    attrs: dict[str, IntType] = {}
    for item in cls.node.body:
        if (
            isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and isinstance(item.value, ast.Name)
            and item.value.id in DTYPES_BY_NAME
        ):
            attrs[item.target.id] = DTYPES_BY_NAME[item.value.id]
    init_qual = cls.methods.get("__init__")
    if init_qual is None:
        return attrs
    init = graph.functions[init_qual].node
    args = init.args
    positional = [*args.posonlyargs, *args.args]
    defaults = args.defaults
    param_dtypes: dict[str, IntType] = {}
    for arg, default in zip(positional[len(positional) - len(defaults):], defaults):
        if isinstance(default, ast.Name) and default.id in DTYPES_BY_NAME:
            param_dtypes[arg.arg] = DTYPES_BY_NAME[default.id]
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if isinstance(default, ast.Name) and default.id in DTYPES_BY_NAME:
            param_dtypes[arg.arg] = DTYPES_BY_NAME[default.id]
    for stmt in ast.walk(init):
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            continue
        target = stmt.targets[0]
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        value = stmt.value
        if isinstance(value, ast.Name):
            if value.id in param_dtypes:
                attrs.setdefault(target.attr, param_dtypes[value.id])
            elif value.id in DTYPES_BY_NAME:
                attrs.setdefault(target.attr, DTYPES_BY_NAME[value.id])
    return attrs


class _FunctionInterpreter:
    """Abstract interpretation of one datapath function."""

    def __init__(
        self,
        graph: ProjectGraph,
        registry: _SignalRegistry,
        info: FunctionInfo,
        dtype_attrs: dict[str, dict[str, IntType]],
        rule: "IntervalEscapeRule",
    ) -> None:
        self.graph = graph
        self.registry = registry
        self.info = info
        self.dtype_attrs = dtype_attrs  # class qualname -> attr -> dtype
        self.rule = rule
        self.values: dict[str, Interval] = {}
        self.dtypes: dict[str, IntType] = {}  # locals bound to dtype objects
        self.findings: list[Finding] = []
        self.proofs: list[DriveProof] = []

    # ------------------------------------------------------------------
    def run(self) -> None:
        self._exec_block(self.info.node.body)

    def _exec_block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            interval = self._eval(stmt.value)
            dtype = self._resolve_dtype_expr(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.values[target.id] = interval
                    if dtype is not None:
                        self.dtypes[target.id] = dtype
                    elif target.id in self.dtypes:
                        del self.dtypes[target.id]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            interval = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.values[stmt.target.id] = interval
        elif isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.values[stmt.target.id] = TOP
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            before_values = dict(self.values)
            self._exec_block(stmt.body)
            then_values = self.values
            self.values = dict(before_values)
            self._exec_block(stmt.orelse)
            merged: dict[str, Interval] = {}
            for name in set(then_values) & set(self.values):
                merged[name] = then_values[name].join(self.values[name])
            self.values = merged
        elif isinstance(stmt, (ast.For, ast.While)):
            # One-step widening: anything assigned in the loop is TOP
            # before the body is interpreted, so accumulation patterns
            # are handled soundly without a fixpoint.
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Name):
                            self.values[target.id] = TOP
                if isinstance(node, ast.For) and isinstance(
                    node.target, ast.Name
                ):
                    self.values[node.target.id] = TOP
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With,)):
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.finalbody)

    # ------------------------------------------------------------------
    # Dtype resolution
    # ------------------------------------------------------------------
    def _resolve_dtype_expr(self, expr: ast.expr) -> IntType | None:
        """The IntType an expression denotes, if statically known."""
        if isinstance(expr, ast.Name):
            if expr.id in self.dtypes:
                return self.dtypes[expr.id]
            if expr.id in DTYPES_BY_NAME:
                return DTYPES_BY_NAME[expr.id]
            return None
        if isinstance(expr, ast.Attribute):
            if expr.attr in DTYPES_BY_NAME and isinstance(
                expr.value, ast.Name
            ):
                return DTYPES_BY_NAME[expr.attr]
            for class_qual in self._receiver_classes(expr.value):
                attrs = self.dtype_attrs.get(class_qual, {})
                if expr.attr in attrs:
                    return attrs[expr.attr]
        return None

    def _receiver_classes(self, expr: ast.expr) -> tuple[str, ...]:
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.info.class_name is not None:
                return (self.info.class_name,)
            return ()
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and self.info.class_name is not None
        ):
            cls = self.graph.classes.get(self.info.class_name)
            if cls is not None:
                return cls.attr_types.get(expr.attr, ())
        return ()

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, expr: ast.expr) -> Interval:
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool):
                return Interval(0, 1)
            if isinstance(expr.value, int):
                return Interval(expr.value, expr.value)
            return TOP
        if isinstance(expr, ast.Name):
            return self.values.get(expr.id, TOP)
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left)
            right = self._eval(expr.right)
            if isinstance(expr.op, ast.Add):
                return left + right
            if isinstance(expr.op, ast.Sub):
                return left - right
            if isinstance(expr.op, ast.Mult):
                return left * right
            return TOP
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval(expr.operand)
            if isinstance(expr.op, ast.USub):
                return -operand
            if isinstance(expr.op, ast.UAdd):
                return operand
            return TOP
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            return self._eval(expr.body).join(self._eval(expr.orelse))
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                self._eval(element)
            return TOP
        if isinstance(expr, ast.Compare):
            return Interval(0, 1)
        return TOP

    def _eval_call(self, call: ast.Call) -> Interval:
        func = call.func
        # Evaluate arguments first (they may carry their own obligations).
        arg_intervals = [self._eval(arg) for arg in call.args]
        for keyword in call.keywords:
            self._eval(keyword.value)
        if isinstance(func, ast.Attribute):
            if func.attr in DRIVE_METHODS and len(call.args) >= 2:
                return self._eval_drive(call, arg_intervals)
            dtype = self._resolve_dtype_expr(func.value)
            if dtype is not None and func.attr in RANGE_CLOSED_METHODS:
                if func.attr == "wrap" and call.args:
                    return self._eval_wrap(call, dtype, arg_intervals[0])
                return _dtype_range(dtype)
            # fault.apply(value, dtype, cycle): range-closed by the
            # mask-closure rule, so the result fits the passed dtype.
            if func.attr == "apply" and len(call.args) >= 2:
                arg_dtype = self._resolve_dtype_expr(call.args[1])
                if arg_dtype is not None:
                    return _dtype_range(arg_dtype)
        return TOP

    def _eval_wrap(
        self, call: ast.Call, dtype: IntType, interval: Interval
    ) -> Interval:
        argument = call.args[0]
        if isinstance(argument, ast.BinOp) and isinstance(
            argument.op, ast.Mult
        ):
            # The multiplier-widening contract: wrap of a product must be
            # lossless. Wrap of a sum may wrap (accumulator contract).
            if not interval.within(dtype):
                self.findings.append(
                    self.rule.finding(
                        self.info.module,
                        call,
                        f"product interval {interval} is not provably "
                        f"within {_dtype_name(dtype)} "
                        f"{_dtype_range(dtype)}; the multiplier widening "
                        "must be lossless — wrap the operands to their "
                        "input dtype first",
                    )
                )
                return _dtype_range(dtype)
        if interval.within(dtype):
            return interval
        return _dtype_range(dtype)

    def _eval_drive(
        self, call: ast.Call, arg_intervals: list[Interval]
    ) -> Interval:
        symbol = self.registry.resolve(call.args[0])
        if symbol is None:
            return TOP
        dtype = self.registry.signal_dtypes.get(symbol)
        if dtype is None:
            return TOP
        interval = arg_intervals[1]
        signal = self.registry.signal_names.get(symbol, symbol)
        if interval.within(dtype):
            self.proofs.append(
                DriveProof(
                    signal=signal,
                    dtype_name=_dtype_name(dtype),
                    interval=interval,
                    qualname=self.info.qualname,
                    line=call.lineno,
                )
            )
        else:
            self.findings.append(
                self.rule.finding(
                    self.info.module,
                    call,
                    f"signal {signal!r} is driven with interval {interval}, "
                    f"which escapes its declared width {_dtype_name(dtype)} "
                    f"{_dtype_range(dtype)}",
                )
            )
        # Post-drive, a stuck-at fault may force any in-range value.
        return _dtype_range(dtype)


def verify_intervals(
    graph: ProjectGraph, rule: "IntervalEscapeRule | None" = None
) -> tuple[list[Finding], list[DriveProof]]:
    """Interpret every datapath function; return (findings, proofs)."""
    if rule is None:
        rule = IntervalEscapeRule()
    registry = _SignalRegistry(graph)
    dtype_attrs = {
        qual: _class_dtype_attrs(graph, qual)
        for qual in graph.classes
        if (graph.classes[qual].module.name or "").startswith(DATAPATH_PREFIXES)
    }
    findings: list[Finding] = []
    proofs: list[DriveProof] = []
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        mod_name = info.module.name or info.module.path.stem
        if not mod_name.startswith(DATAPATH_PREFIXES):
            continue
        interp = _FunctionInterpreter(graph, registry, info, dtype_attrs, rule)
        interp.run()
        findings.extend(interp.findings)
        proofs.extend(interp.proofs)
    return findings, proofs


class IntervalEscapeRule(ProjectRule):
    """Signal drives and product wraps stay within their declared width."""

    id = "interval-escape"
    severity = Severity.ERROR
    description = (
        "MAC datapath intervals must stay within declared signal widths: "
        "signal drives prove containment, product wraps must be lossless "
        "(INT8xINT8 fits INT32; only the accumulator may wrap)"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        findings, _ = verify_intervals(graph, rule=self)
        yield from findings


class MaskClosureRule(ProjectRule):
    """Fault ``apply()`` methods must be range-closed."""

    id = "mask-closure"
    severity = Severity.ERROR
    description = (
        "fault-model apply() methods must return range-closed values: the "
        "unmodified input or the result of a range-preserving dtype "
        "method (force_bit, flip_bit, wrap, ...)"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            mod_name = info.module.name or info.module.path.stem
            if not mod_name.startswith(FAULT_PREFIX):
                continue
            if info.name != "apply" or info.class_name is None:
                continue
            yield from self._check_apply(info)

    def _check_apply(self, info: FunctionInfo) -> Iterator[Finding]:
        args = info.node.args
        params = [*args.posonlyargs, *args.args]
        # apply(self, value, dtype, cycle): the value parameter arrives
        # range-closed (the caller wraps before driving).
        closed: set[str] = {params[1].arg} if len(params) > 1 else set()
        for stmt in ast.walk(info.node):
            if isinstance(stmt, ast.Assign):
                if self._is_closed(stmt.value, closed):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            closed.add(target.id)
                else:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            closed.discard(target.id)
        for stmt in ast.walk(info.node):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if not self._is_closed(stmt.value, closed):
                    yield self.finding(
                        info.module,
                        stmt,
                        f"{info.class_name.rpartition('.')[2]}.apply() may "
                        "return a value outside the signal dtype range; "
                        "return the unmodified input or a range-preserving "
                        "dtype method result",
                    )

    def _is_closed(self, expr: ast.expr, closed: set[str]) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in closed
        if isinstance(expr, ast.Call):
            func = expr.func
            return (
                isinstance(func, ast.Attribute)
                and func.attr in RANGE_CLOSED_METHODS
            )
        if isinstance(expr, ast.IfExp):
            return self._is_closed(expr.body, closed) and self._is_closed(
                expr.orelse, closed
            )
        return False


#: The interval battery, in documentation order.
INTERVAL_RULES: tuple[ProjectRule, ...] = (
    IntervalEscapeRule(),
    MaskClosureRule(),
)
