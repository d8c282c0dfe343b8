"""Static tensor shape/dtype verifier for the vectorised numpy tier.

PR 7 moved the campaign hot path into vectorised numpy kernels
(:mod:`repro.engines.analytic`), where the paper's bit-accuracy contract
lives or dies on details the scalar interval pass
(:mod:`repro.checks.intervals`) cannot see: a bare ``np.arange`` or a
bool-array ``.sum()`` silently produces a *platform-default* integer
(int32 on Windows/ILP32 — a working delta tensor on Linux is a wrapped
one elsewhere), and one misaligned broadcast turns a per-site delta into
an accidental outer product that no single-platform test distinguishes
from luck. This module makes those hazards static: an abstract
interpreter over an (abstract shape × dtype) lattice for the numpy
surface the repo actually uses.

The abstract domain
-------------------
*Dimensions* are symbolic: a literal ``int``, a :class:`SymDim` minted
from the program text (``mt, kt = a_tile.shape`` binds ``mt`` to the
array's first axis; ``num_sites = len(cols)`` ties ``num_sites`` to
``cols``'s leading axis), or ``None`` — the ⊤ dimension. *Shapes* are
tuples of dimensions, or ``None`` for unknown rank. *Dtypes* are the
small closed set the datapath uses (``bool`` < ``int32`` <
``default-int`` < ``int64`` < ``float64`` in promotion order), with
``default-int`` — numpy's platform C ``long`` — being the hazard the
dtype rule exists to eliminate.

The interpreter is local and deliberately conservative the same way the
interval pass is: facts it cannot establish become ⊤, and every rule
fires only on *provable* violations (two known dimensions that cannot
broadcast; an element count that provably changes across a reshape), so
⊤ never produces a finding. Loops are handled by the one-step widening
the interval pass uses: names assigned anywhere in a loop are ⊤ before
the body is interpreted once.

Rules
-----
``array-dtype-closure``
    Arrays created or accumulated on the MAC/delta datapath must carry
    an explicit declared-width dtype: no ``np.arange``/``np.array``
    relying on the platform-default int, no dtype-less ``np.zeros``
    (silent float64 on an integer datapath), no bool-array
    ``sum``/``cumsum`` accumulating into the platform default, and no
    store that silently downcasts a wider array into a narrower one.
``array-broadcast``
    Elementwise ops and ``np.where`` may broadcast only along axes
    provably sized 1 at the alignment site; two known, unequal,
    non-unit dimensions are a finding. ``@`` checks the contraction
    axis the same way.
``array-shape-conservation``
    ``reshape`` must preserve the symbolic element count,
    ``transpose`` axes must be a permutation of the array's rank, and
    ``concatenate`` parts must agree on every non-concatenation axis.
``array-alloc-in-loop``
    A fresh-array allocation inside a loop whose arguments are all
    loop-invariant is hoistable — a perf smell in per-site/per-cycle
    kernels, where the allocation cost rivals the arithmetic
    (severity: warning).
"""

from __future__ import annotations

import ast
import weakref
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.checks.engine import Finding, ProjectRule, Severity
from repro.checks.graph import FunctionInfo, ProjectGraph

__all__ = [
    "ARRAY_SCOPE_PREFIXES",
    "CREATION_FUNCTIONS",
    "DT_BOOL",
    "DT_INT32",
    "DT_DEFAULT_INT",
    "DT_INT64",
    "DT_FLOAT64",
    "SymDim",
    "ArrayValue",
    "ScalarValue",
    "TupleValue",
    "TOP_VALUE",
    "join_dims",
    "join_values",
    "promote_dtypes",
    "broadcast_shapes",
    "reshape_conserves",
    "verify_arrays",
    "ArrayDtypeClosureRule",
    "ArrayBroadcastRule",
    "ArrayShapeConservationRule",
    "ArrayAllocInLoopRule",
    "ARRAY_RULES",
]

#: Module prefixes the array pass interprets: the analytic engine tier,
#: the fixed-width arithmetic and systolic simulators beneath it, and the
#: operator lowering layer they share.
ARRAY_SCOPE_PREFIXES: tuple[str, ...] = (
    "repro.engines.analytic",
    "repro.datatypes",
    "repro.systolic",
    "repro.ops",
)

#: numpy constructors that allocate a fresh array.
CREATION_FUNCTIONS = frozenset(
    {"zeros", "ones", "empty", "full", "arange", "eye", "linspace"}
)

#: Constructors whose dtype-less default is float64 — a silent float on
#: the integer datapath.
_FLOAT_DEFAULT_CREATORS = frozenset(
    {"zeros", "ones", "empty", "full", "eye", "linspace"}
)

#: Reductions that accumulate in the array's own dtype (platform default
#: for bool inputs) unless an explicit accumulator dtype is passed.
_ACCUMULATING_REDUCTIONS = frozenset({"sum", "cumsum", "prod", "cumprod"})  # repro: ignore[signal-literal]

# ----------------------------------------------------------------------
# Dtype lattice
# ----------------------------------------------------------------------

DT_BOOL = "bool"
DT_INT32 = "int32"
DT_DEFAULT_INT = "default-int"
DT_INT64 = "int64"
DT_FLOAT64 = "float64"

#: Promotion order (numpy's, restricted to the datapath's closed set).
_DTYPE_RANK = {
    DT_BOOL: 0,
    DT_INT32: 1,
    DT_DEFAULT_INT: 2,
    DT_INT64: 3,
    DT_FLOAT64: 4,
}

#: Spellings of explicit dtype arguments the pass recognises. Anything
#: else explicit (``np.uint8``, a dtype object) maps to ⊤ but still
#: *counts* as explicit — the dtype rule only fires on omissions.
_DTYPE_SPELLINGS = {
    "int64": DT_INT64,
    "int32": DT_INT32,
    "int8": DT_INT32,  # narrower than int32 for downcast purposes
    "bool": DT_BOOL,
    "bool_": DT_BOOL,
    "float64": DT_FLOAT64,
    "float": DT_FLOAT64,
    "intp": DT_DEFAULT_INT,
    "int_": DT_DEFAULT_INT,
    "int": DT_DEFAULT_INT,
}


def promote_dtypes(left: str | None, right: str | None) -> str | None:
    """numpy's binary promotion over the abstract dtype set (⊤ absorbs)."""
    if left is None or right is None:
        return None
    if _DTYPE_RANK[left] >= _DTYPE_RANK[right]:
        return left
    return right


def _is_default_int(dtype: str | None) -> bool:
    return dtype == DT_DEFAULT_INT


# ----------------------------------------------------------------------
# Dimension / shape lattice
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SymDim:
    """A symbolic dimension, equal only to itself (by minted name)."""

    name: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _dim_str(dim) -> str:
    if dim is None:
        return "?"
    return str(dim)


def _shape_str(shape) -> str:
    if shape is None:
        return "(?, ...)"
    return "(" + ", ".join(_dim_str(d) for d in shape) + ")"


def join_dims(left, right):
    """Lattice join of two dimensions: equal survives, else ⊤."""
    if left == right:
        return left
    return None


def _join_shapes(left, right):
    if left is None or right is None or len(left) != len(right):
        return None
    return tuple(join_dims(a, b) for a, b in zip(left, right))


def broadcast_shapes(
    left, right
) -> tuple[tuple | None, list[tuple[int, object, object]]]:
    """numpy broadcasting over abstract shapes.

    Returns ``(result_shape, conflicts)`` where each conflict is
    ``(axis_from_the_right, left_dim, right_dim)`` for a pair of *known*
    dimensions that are unequal and neither provably 1 — the only case
    broadcasting is statically refutable. ⊤ dimensions and unknown ranks
    never conflict.
    """
    if left is None or right is None:
        return None, []
    rank = max(len(left), len(right))
    padded_l = (1,) * (rank - len(left)) + tuple(left)
    padded_r = (1,) * (rank - len(right)) + tuple(right)
    out = []
    conflicts: list[tuple[int, object, object]] = []
    for axis, (a, b) in enumerate(zip(padded_l, padded_r)):
        if a is None or b is None:
            out.append(None)
        elif a == b:
            out.append(a)
        elif a == 1:
            out.append(b)
        elif b == 1:
            out.append(a)
        else:
            conflicts.append((rank - axis, a, b))
            out.append(None)
    return tuple(out), conflicts


def _count_factors(shape) -> tuple[int, list[SymDim]] | None:
    """Element count as ``(literal product, symbol multiset)``.

    ``None`` when any dimension is ⊤ — the count is then unknowable.
    """
    if shape is None:
        return None
    literal = 1
    symbols: list[SymDim] = []
    for dim in shape:
        if dim is None:
            return None
        if isinstance(dim, SymDim):
            symbols.append(dim)
        else:
            literal *= dim
    return literal, sorted(symbols, key=lambda s: s.name)


def reshape_conserves(source, target) -> bool | None:
    """Whether a reshape provably conserves the element count.

    ``True``: provably equal. ``False``: provably different (a finding).
    ``None``: not decidable symbolically — never a finding.
    """
    src = _count_factors(source)
    dst = _count_factors(target)
    if src is None or dst is None:
        return None
    src_lit, src_syms = src
    dst_lit, dst_syms = dst
    if src_syms == dst_syms:
        return src_lit == dst_lit
    return None


# ----------------------------------------------------------------------
# Abstract values
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArrayValue:
    """An ndarray: abstract shape (``None`` = unknown rank) × dtype."""

    shape: tuple | None
    dtype: str | None


@dataclass(frozen=True)
class ScalarValue:
    """A Python/numpy integer scalar usable as a dimension."""

    dim: object = None  # int | SymDim | None


@dataclass(frozen=True)
class TupleValue:
    """A tuple of scalars — a shape expression (``x.shape``, ``(m, n)``)."""

    dims: tuple


class _Top:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "⊤"


#: The top of the value lattice: could be anything.
TOP_VALUE = _Top()


def join_values(left, right):
    """Control-flow join: agreeing structure survives, the rest is ⊤."""
    if left is right:
        return left
    if isinstance(left, ArrayValue) and isinstance(right, ArrayValue):
        return ArrayValue(
            shape=_join_shapes(left.shape, right.shape),
            dtype=left.dtype if left.dtype == right.dtype else None,
        )
    if isinstance(left, ScalarValue) and isinstance(right, ScalarValue):
        return ScalarValue(dim=join_dims(left.dim, right.dim))
    if isinstance(left, TupleValue) and isinstance(right, TupleValue):
        if len(left.dims) == len(right.dims):
            return TupleValue(
                dims=tuple(
                    join_dims(a, b) for a, b in zip(left.dims, right.dims)
                )
            )
    return TOP_VALUE


# ----------------------------------------------------------------------
# Per-function interpreter
# ----------------------------------------------------------------------

#: Internal helpers with known array semantics: name -> (dtype of the
#: result, which positional argument the shape is taken from).
_INT64_HELPERS = frozenset(
    {"wrap_array", "force_bit_array", "flip_bit_array"}
)

#: ndarray-typed annotations (by final segment).
_NDARRAY_ANNOTATIONS = frozenset({"ndarray", "NDArray", "ArrayLike"})


def _annotation_is_ndarray(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(node, ast.Attribute):
        return node.attr in _NDARRAY_ANNOTATIONS
    if isinstance(node, ast.Name):
        return node.id in _NDARRAY_ANNOTATIONS
    return False


class _FunctionArrayInterpreter:
    """One abstract-interpretation pass over one scoped function."""

    def __init__(
        self,
        graph: ProjectGraph,
        info: FunctionInfo,
        rules: "dict[str, ProjectRule]",
    ) -> None:
        self.graph = graph
        self.info = info
        self.rules = rules
        self.mod_name = info.module.name or info.module.path.stem
        self.env: dict[str, object] = {}
        self.findings: list[tuple[str, Finding]] = []
        self._sym_counter = 0
        self._seed_parameters()

    # -- findings -------------------------------------------------------
    def report(self, rule_id: str, node: ast.AST, message: str) -> None:
        rule = self.rules[rule_id]
        self.findings.append(
            (rule_id, rule.finding(self.info.module, node, message))
        )

    def _mint(self, hint: str) -> SymDim:
        """A fresh symbol, unique within this function."""
        self._sym_counter += 1
        return SymDim(f"{hint}#{self._sym_counter}")

    def _seed_parameters(self) -> None:
        args = self.info.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if _annotation_is_ndarray(arg.annotation):
                self.env[arg.arg] = ArrayValue(shape=None, dtype=None)
            elif isinstance(arg.annotation, ast.Name) and arg.annotation.id == "int":
                self.env[arg.arg] = ScalarValue(dim=SymDim(arg.arg))
            else:
                self.env[arg.arg] = TOP_VALUE

    # -- statement execution --------------------------------------------
    def run(self) -> "_FunctionArrayInterpreter":
        self._exec_block(self.info.node.body)
        return self

    def _exec_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are opaque
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._exec_assign([stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                current = self.env.get(stmt.target.id, TOP_VALUE)
                result = self._binop_result(stmt, current, value, stmt.op)
                self.env[stmt.target.id] = result
            elif isinstance(stmt.target, ast.Subscript):
                self._check_store(stmt, stmt.target, value)
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self.eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            before = dict(self.env)
            self._exec_block(stmt.body)
            then_env = self.env
            self.env = dict(before)
            self._exec_block(stmt.orelse)
            merged: dict[str, object] = {}
            for name in set(then_env) & set(self.env):
                merged[name] = join_values(then_env[name], self.env[name])
            self.env = merged
        elif isinstance(stmt, (ast.For, ast.While)):
            # One-step widening (the interval pass's idiom): anything
            # assigned in the loop is ⊤ before the body runs once, so
            # chained-state recurrences are handled soundly.
            for name in _loop_bound_names(stmt):
                self.env[name] = TOP_VALUE
            if isinstance(stmt, ast.For):
                self.eval(stmt.iter)
            else:
                self.eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    self.env[item.optional_vars.id] = TOP_VALUE
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)

    def _exec_assign(
        self, targets: Sequence[ast.expr], value_expr: ast.expr
    ) -> None:
        value = self.eval(value_expr)
        for target in targets:
            if isinstance(target, ast.Name):
                self.env[target.id] = value
            elif isinstance(target, (ast.Tuple, ast.List)):
                self._unpack(target, value, value_expr)
            elif isinstance(target, ast.Subscript):
                self._check_store(target, target, value)

    def _unpack(
        self, target: ast.Tuple | ast.List, value, value_expr: ast.expr
    ) -> None:
        """Tuple unpacking, with the ``m, n = x.shape`` refinement."""
        names = [
            e.id if isinstance(e, ast.Name) else None for e in target.elts
        ]
        if isinstance(value, TupleValue) and len(value.dims) == len(names):
            dims = list(value.dims)
            # Mint symbols for unknown dims, named after their targets,
            # and — when the tuple came from ``arr.shape`` — refine the
            # array's own shape to those symbols so later alignment
            # sites can relate them.
            for i, (dim, name) in enumerate(zip(dims, names)):
                if dim is None and name is not None:
                    dims[i] = self._mint(name)
            for dim, name in zip(dims, names):
                if name is not None:
                    self.env[name] = ScalarValue(dim=dim)
            self._refine_shape_source(value_expr, tuple(dims))
            return
        for name in names:
            if name is not None:
                self.env[name] = TOP_VALUE

    def _refine_shape_source(self, expr: ast.expr, dims: tuple) -> None:
        """After ``m, n = arr.shape``, narrow ``arr`` itself to (m, n)."""
        if (
            isinstance(expr, ast.Attribute)
            and expr.attr == "shape"
            and isinstance(expr.value, ast.Name)
        ):
            name = expr.value.id
            current = self.env.get(name)
            if isinstance(current, ArrayValue):
                self.env[name] = ArrayValue(shape=dims, dtype=current.dtype)

    def _check_store(
        self, stmt: ast.AST, target: ast.Subscript, value
    ) -> None:
        """``x[...] = y``: flag a provable silent downcast into ``x``."""
        self.eval(target.slice)
        receiver = self.eval(target.value)
        if not (
            isinstance(receiver, ArrayValue)
            and isinstance(value, ArrayValue)
        ):
            return
        lhs, rhs = receiver.dtype, value.dtype
        if lhs is None or rhs is None:
            return
        if _DTYPE_RANK[rhs] > _DTYPE_RANK[lhs] and lhs != DT_DEFAULT_INT:
            self.report(
                "array-dtype-closure",
                stmt,
                f"store silently downcasts {rhs} data into a {lhs} array; "
                "widen the destination or cast explicitly with astype()",
            )

    # -- expression evaluation ------------------------------------------
    def eval(self, expr: ast.expr | None):
        if expr is None:
            return TOP_VALUE
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool):
                return TOP_VALUE
            if isinstance(expr.value, int):
                return ScalarValue(dim=expr.value)
            return TOP_VALUE
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, TOP_VALUE)
        if isinstance(expr, ast.Tuple) or isinstance(expr, ast.List):
            values = [self.eval(e) for e in expr.elts]
            if values and all(isinstance(v, ScalarValue) for v in values):
                return TupleValue(dims=tuple(v.dim for v in values))
            return TOP_VALUE
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(expr)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.BinOp):
            left = self.eval(expr.left)
            right = self.eval(expr.right)
            return self._binop_result(expr, left, right, expr.op)
        if isinstance(expr, ast.UnaryOp):
            operand = self.eval(expr.operand)
            if isinstance(expr.op, ast.Not):
                return TOP_VALUE
            if isinstance(expr.op, ast.USub):
                if isinstance(operand, ScalarValue):
                    dim = operand.dim
                    return ScalarValue(
                        dim=-dim if isinstance(dim, int) else None
                    )
                if isinstance(operand, ArrayValue):
                    return operand
                return TOP_VALUE
            return operand
        if isinstance(expr, ast.Compare):
            left = self.eval(expr.left)
            result: object = TOP_VALUE
            for comparator in expr.comparators:
                right = self.eval(comparator)
                if isinstance(left, ArrayValue) or isinstance(right, ArrayValue):
                    shape = self._aligned_shape(expr, left, right, "comparison")
                    result = ArrayValue(shape=shape, dtype=DT_BOOL)
                left = right
            return result
        if isinstance(expr, ast.IfExp):
            self.eval(expr.test)
            return join_values(self.eval(expr.body), self.eval(expr.orelse))
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                self.eval(value)
            return TOP_VALUE
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for comp in expr.generators:
                self.eval(comp.iter)
            return TOP_VALUE
        if isinstance(expr, ast.NamedExpr):
            value = self.eval(expr.value)
            if isinstance(expr.target, ast.Name):
                self.env[expr.target.id] = value
            return value
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value)
        return TOP_VALUE

    def _eval_attribute(self, expr: ast.Attribute):
        receiver = self.eval(expr.value)
        if isinstance(receiver, ArrayValue):
            if expr.attr == "shape":
                if receiver.shape is not None:
                    return TupleValue(dims=receiver.shape)
                return TOP_VALUE
            if expr.attr == "T":
                shape = (
                    tuple(reversed(receiver.shape))
                    if receiver.shape is not None
                    else None
                )
                return ArrayValue(shape=shape, dtype=receiver.dtype)
            if expr.attr == "dtype":
                return TOP_VALUE
            if expr.attr == "size" or expr.attr == "ndim":
                return ScalarValue(dim=None)
        return TOP_VALUE

    # -- subscripting ---------------------------------------------------
    def _eval_subscript(self, expr: ast.Subscript):
        receiver = self.eval(expr.value)
        if isinstance(receiver, TupleValue):
            index = expr.slice
            if isinstance(index, ast.Constant) and isinstance(index.value, int):
                if -len(receiver.dims) <= index.value < len(receiver.dims):
                    return ScalarValue(dim=receiver.dims[index.value])
            self.eval(index)
            return TOP_VALUE
        if not isinstance(receiver, ArrayValue):
            self.eval(expr.slice)
            return TOP_VALUE
        terms = (
            list(expr.slice.elts)
            if isinstance(expr.slice, ast.Tuple)
            else [expr.slice]
        )
        if receiver.shape is None:
            for term in terms:
                self.eval(term)
            return ArrayValue(shape=None, dtype=receiver.dtype)
        dims: list[object] = []
        remaining = list(receiver.shape)
        advanced = False
        for term in terms:
            if isinstance(term, ast.Slice):
                source = remaining.pop(0) if remaining else None
                full = term.lower is None and term.upper is None and term.step is None
                dims.append(source if full else None)
                for bound in (term.lower, term.upper, term.step):
                    self.eval(bound)
            elif isinstance(term, ast.Constant) and term.value is None:
                dims.append(1)  # np.newaxis
            elif isinstance(term, ast.Constant) and term.value is Ellipsis:
                # Consume enough axes that the remaining terms line up.
                explicit = sum(
                    1
                    for t in terms
                    if not (isinstance(t, ast.Constant) and t.value in (None, Ellipsis))
                )
                keep = len(remaining) - (explicit - len([d for d in dims if d != 1]))
                while len(remaining) > max(
                    0, explicit - sum(1 for t in terms[: terms.index(term)] if True)
                ) and keep > 0:
                    dims.append(remaining.pop(0))
                    keep -= 1
            else:
                # Integer index drops the axis; an array index (advanced
                # indexing) makes the result shape unknowable here.
                value = self.eval(term)
                if remaining:
                    remaining.pop(0)
                if isinstance(value, ArrayValue):
                    advanced = True
        dims.extend(remaining)
        if advanced:
            return ArrayValue(shape=None, dtype=receiver.dtype)
        return ArrayValue(shape=tuple(dims), dtype=receiver.dtype)

    # -- binary operators -----------------------------------------------
    def _binop_result(self, node: ast.AST, left, right, op: ast.operator):
        if isinstance(op, ast.MatMult):
            return self._matmul_result(node, left, right)
        left_arr = isinstance(left, ArrayValue)
        right_arr = isinstance(right, ArrayValue)
        if not left_arr and not right_arr:
            return ScalarValue(dim=None) if (
                isinstance(left, ScalarValue) or isinstance(right, ScalarValue)
            ) else TOP_VALUE
        shape = self._aligned_shape(node, left, right, _op_label(op))
        # Python scalars are weak: they never widen or narrow the array
        # side, so dtype follows the array operand(s).
        if left_arr and right_arr:
            dtype = promote_dtypes(left.dtype, right.dtype)
            if isinstance(op, (ast.BitAnd, ast.BitOr, ast.BitXor)):
                dtype = promote_dtypes(left.dtype, right.dtype)
        elif left_arr:
            dtype = left.dtype
        else:
            dtype = right.dtype
        if isinstance(op, ast.Div):
            dtype = DT_FLOAT64
        return ArrayValue(shape=shape, dtype=dtype)

    def _aligned_shape(self, node: ast.AST, left, right, label: str):
        lshape = left.shape if isinstance(left, ArrayValue) else ()
        rshape = right.shape if isinstance(right, ArrayValue) else ()
        shape, conflicts = broadcast_shapes(lshape, rshape)
        for axis, a, b in conflicts:
            self.report(
                "array-broadcast",
                node,
                f"{label} cannot broadcast axis -{axis}: "
                f"{_dim_str(a)} vs {_dim_str(b)} "
                f"(shapes {_shape_str(lshape)} and {_shape_str(rshape)}); "
                "broadcasting is only allowed along axes provably sized 1",
            )
        return shape

    def _matmul_result(self, node: ast.AST, left, right):
        if not (isinstance(left, ArrayValue) and isinstance(right, ArrayValue)):
            return TOP_VALUE
        lshape, rshape = left.shape, right.shape
        dtype = promote_dtypes(left.dtype, right.dtype)
        if lshape is None or rshape is None:
            return ArrayValue(shape=None, dtype=dtype)
        if len(lshape) == 2 and len(rshape) in (1, 2):
            inner_l = lshape[-1]
            inner_r = rshape[0] if len(rshape) == 1 else rshape[-2]
            if (
                inner_l is not None
                and inner_r is not None
                and inner_l != inner_r
            ):
                self.report(
                    "array-broadcast",
                    node,
                    f"matmul contraction axes disagree: {_dim_str(inner_l)} "
                    f"vs {_dim_str(inner_r)} (shapes {_shape_str(lshape)} "
                    f"@ {_shape_str(rshape)})",
                )
            if len(rshape) == 2:
                return ArrayValue(shape=(lshape[0], rshape[1]), dtype=dtype)
            return ArrayValue(shape=(lshape[0],), dtype=dtype)
        return ArrayValue(shape=None, dtype=dtype)

    # -- calls ----------------------------------------------------------
    def _eval_call(self, call: ast.Call):
        func = call.func
        dotted = (
            self.graph._dotted_external(self.mod_name, func)
            if isinstance(func, (ast.Attribute, ast.Name))
            else None
        )
        if dotted is not None and dotted.startswith("numpy."):
            return self._eval_numpy_call(call, dotted.removeprefix("numpy."))
        if isinstance(func, ast.Name):
            if func.id == "len" and len(call.args) == 1:
                return self._eval_len(call)
            if func.id in ("int", "abs", "min", "max", "round"):
                for arg in call.args:
                    self.eval(arg)
                return ScalarValue(dim=None)
            if func.id == "range":
                for arg in call.args:
                    self.eval(arg)
                return TOP_VALUE
            if self._resolves_to_helper(func.id):
                return self._eval_int64_helper(call)
        if isinstance(func, ast.Attribute):
            receiver = self.eval(func.value)
            if isinstance(receiver, ArrayValue):
                return self._eval_array_method(call, func.attr, receiver)
        for arg in call.args:
            self.eval(arg)
        for keyword in call.keywords:
            self.eval(keyword.value)
        return TOP_VALUE

    def _resolves_to_helper(self, name: str) -> bool:
        if name in _INT64_HELPERS:
            entry = self.graph.from_imports.get(self.mod_name, {}).get(name)
            local = f"{self.mod_name}.{name}"
            if entry is not None:
                return entry[1] in _INT64_HELPERS
            return local in self.graph.functions or True
        return False

    def _eval_len(self, call: ast.Call):
        value = self.eval(call.args[0])
        if isinstance(value, ArrayValue):
            if value.shape:
                dim = value.shape[0]
                if dim is None and isinstance(call.args[0], ast.Name):
                    # Mint a symbol and refine the array so that later
                    # ``np.arange(n)`` relates to the array's own axis.
                    dim = self._mint(f"len({call.args[0].id})")
                    self.env[call.args[0].id] = ArrayValue(
                        shape=(dim, *value.shape[1:]), dtype=value.dtype
                    )
                return ScalarValue(dim=dim)
            if value.shape is None and isinstance(call.args[0], ast.Name):
                dim = self._mint(f"len({call.args[0].id})")
                return ScalarValue(dim=dim)
        return ScalarValue(dim=None)

    def _eval_int64_helper(self, call: ast.Call):
        """wrap_array / force_bit_array / flip_bit_array: int64 out,
        shape of the first argument (they asarray+mask elementwise)."""
        values = [self.eval(arg) for arg in call.args]
        for keyword in call.keywords:
            self.eval(keyword.value)
        first = values[0] if values else TOP_VALUE
        shape = first.shape if isinstance(first, ArrayValue) else None
        return ArrayValue(shape=shape, dtype=DT_INT64)

    # -- the numpy surface ----------------------------------------------
    def _explicit_dtype(self, call: ast.Call, positional_index: int | None):
        """``(given, dtype)``: whether a dtype argument is present, and
        the abstract dtype it denotes (⊤ for unrecognised spellings)."""
        for keyword in call.keywords:
            if keyword.arg == "dtype":
                return True, self._dtype_of_expr(keyword.value)
        if positional_index is not None and len(call.args) > positional_index:
            return True, self._dtype_of_expr(call.args[positional_index])
        return False, None

    def _dtype_of_expr(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Attribute):
            return _DTYPE_SPELLINGS.get(expr.attr)
        if isinstance(expr, ast.Name):
            return _DTYPE_SPELLINGS.get(expr.id)
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return _DTYPE_SPELLINGS.get(expr.value)
        return None

    def _shape_from_arg(self, expr: ast.expr):
        value = self.eval(expr)
        if isinstance(value, TupleValue):
            return value.dims
        if isinstance(value, ScalarValue):
            return (value.dim,)
        return None

    def _eval_numpy_call(self, call: ast.Call, name: str):
        for keyword in call.keywords:
            if keyword.arg != "dtype":
                self.eval(keyword.value)

        if name in CREATION_FUNCTIONS:
            return self._eval_creation(call, name)
        if name in ("asarray", "ascontiguousarray", "array"):
            return self._eval_array_ctor(call, name)
        if name == "where" and len(call.args) == 3:
            cond = self.eval(call.args[0])
            then = self.eval(call.args[1])
            other = self.eval(call.args[2])
            shape = self._aligned_shape(call, then, other, "np.where")
            if isinstance(cond, ArrayValue):
                cond_val = ArrayValue(shape=shape, dtype=None)
                shape = self._aligned_shape(call, cond, cond_val, "np.where")
            then_arr = isinstance(then, ArrayValue)
            other_arr = isinstance(other, ArrayValue)
            if then_arr and other_arr:
                dtype = promote_dtypes(then.dtype, other.dtype)
            elif then_arr:
                dtype = then.dtype
            elif other_arr:
                dtype = other.dtype
            else:
                dtype = None
            return ArrayValue(shape=shape, dtype=dtype)
        if name in _ACCUMULATING_REDUCTIONS and call.args:
            receiver = self.eval(call.args[0])
            if isinstance(receiver, ArrayValue):
                return self._reduction_result(call, name, receiver, offset=1)
            return TOP_VALUE
        if name in ("concatenate", "stack", "vstack", "hstack"):
            return self._eval_concatenate(call, name)
        if name in ("minimum", "maximum"):
            left = self.eval(call.args[0]) if call.args else TOP_VALUE
            right = self.eval(call.args[1]) if len(call.args) > 1 else TOP_VALUE
            shape = self._aligned_shape(call, left, right, f"np.{name}")
            l_arr = isinstance(left, ArrayValue)
            r_arr = isinstance(right, ArrayValue)
            if l_arr and r_arr:
                dtype = promote_dtypes(left.dtype, right.dtype)
            else:
                dtype = left.dtype if l_arr else (
                    right.dtype if r_arr else None
                )
            return ArrayValue(shape=shape, dtype=dtype)
        if name in ("abs", "negative", "clip", "copy", "sign"):
            value = self.eval(call.args[0]) if call.args else TOP_VALUE
            for arg in call.args[1:]:
                self.eval(arg)
            if isinstance(value, ArrayValue):
                return value
            return TOP_VALUE
        if name == "nonzero" and call.args:
            self.eval(call.args[0])
            return TOP_VALUE
        if name in ("reshape", "transpose") and call.args:
            receiver = self.eval(call.args[0])
            if isinstance(receiver, ArrayValue):
                return self._eval_array_method(
                    call, name, receiver, args_offset=1
                )
            return TOP_VALUE
        for arg in call.args:
            self.eval(arg)
        return TOP_VALUE

    def _eval_creation(self, call: ast.Call, name: str):
        dtype_positional = {
            "zeros": 1, "ones": 1, "empty": 1, "eye": 3, "full": 2,
            "arange": None, "linspace": None,
        }.get(name)
        given, dtype = self._explicit_dtype(call, dtype_positional)
        if name == "arange":
            for arg in call.args:
                value = self.eval(arg)
            if not given:
                self.report(
                    "array-dtype-closure",
                    call,
                    "np.arange() without an explicit dtype yields the "
                    "platform-default int (int32 on ILP32/Windows); pass "
                    "dtype=np.int64 on the delta datapath",
                )
                dtype = DT_DEFAULT_INT
            if len(call.args) == 1:
                value = self.eval(call.args[0])
                if isinstance(value, ScalarValue):
                    return ArrayValue(shape=(value.dim,), dtype=dtype)
            return ArrayValue(shape=(None,), dtype=dtype)
        if not given and name in _FLOAT_DEFAULT_CREATORS:
            self.report(
                "array-dtype-closure",
                call,
                f"np.{name}() without an explicit dtype allocates float64 "
                "on the integer datapath; pass dtype=np.int64 (or the "
                "declared signal width)",
            )
            dtype = DT_FLOAT64
        shape = self._shape_from_arg(call.args[0]) if call.args else None
        if name == "full" and len(call.args) > 1:
            self.eval(call.args[1])
        if name == "eye":
            shape = None
        return ArrayValue(shape=shape, dtype=dtype)

    def _eval_array_ctor(self, call: ast.Call, name: str):
        given, dtype = self._explicit_dtype(
            call, 1 if name != "array" else None
        )
        operand = self.eval(call.args[0]) if call.args else TOP_VALUE
        if isinstance(operand, ArrayValue):
            # asarray/array of an existing array preserves its dtype —
            # explicit enough; an override wins.
            return ArrayValue(
                shape=operand.shape, dtype=dtype if given else operand.dtype
            )
        if not given and self._is_int_sequence_literal(call.args[0] if call.args else None):
            self.report(
                "array-dtype-closure",
                call,
                f"np.{name}() over an int sequence without an explicit "
                "dtype yields the platform-default int; pass "
                "dtype=np.int64 on the delta datapath",
            )
            return ArrayValue(shape=None, dtype=DT_DEFAULT_INT)
        return ArrayValue(shape=None, dtype=dtype if given else None)

    @staticmethod
    def _is_int_sequence_literal(expr: ast.expr | None) -> bool:
        if not isinstance(expr, (ast.List, ast.Tuple)):
            return False
        def all_ints(node: ast.expr) -> bool:
            if isinstance(node, (ast.List, ast.Tuple)):
                return all(all_ints(e) for e in node.elts)
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                return all_ints(node.operand)
            return isinstance(node, ast.Constant) and isinstance(
                node.value, int
            ) and not isinstance(node.value, bool)
        return bool(expr.elts) and all_ints(expr)

    def _eval_concatenate(self, call: ast.Call, name: str):
        axis = 0
        for keyword in call.keywords:
            if keyword.arg == "axis":
                if isinstance(keyword.value, ast.Constant) and isinstance(
                    keyword.value.value, int
                ):
                    axis = keyword.value.value
                else:
                    axis = None
        if len(call.args) > 1 and name == "concatenate":
            value = self.eval(call.args[1])
            if isinstance(value, ScalarValue) and isinstance(value.dim, int):
                axis = value.dim
        if not call.args or not isinstance(call.args[0], (ast.List, ast.Tuple)):
            if call.args:
                self.eval(call.args[0])
            return ArrayValue(shape=None, dtype=None)
        parts = [self.eval(e) for e in call.args[0].elts]
        arrays = [p for p in parts if isinstance(p, ArrayValue)]
        dtype: str | None = None
        for part in arrays:
            dtype = part.dtype if dtype is None else promote_dtypes(dtype, part.dtype)
        if len(arrays) != len(parts) or name != "concatenate":
            return ArrayValue(shape=None, dtype=dtype)
        shapes = [a.shape for a in arrays]
        if axis is None or any(s is None for s in shapes):
            return ArrayValue(shape=None, dtype=dtype)
        ranks = {len(s) for s in shapes}
        if len(ranks) != 1:
            return ArrayValue(shape=None, dtype=dtype)
        rank = ranks.pop()
        if not (-rank <= axis < rank):
            return ArrayValue(shape=None, dtype=dtype)
        axis %= rank
        out: list[object] = []
        for i in range(rank):
            if i == axis:
                dims = [s[i] for s in shapes]
                literal = 0
                known = True
                for dim in dims:
                    if isinstance(dim, int):
                        literal += dim
                    else:
                        known = False
                out.append(literal if known else None)
                continue
            merged = shapes[0][i]
            for s in shapes[1:]:
                dim = s[i]
                if merged is None or dim is None:
                    merged = join_dims(merged, dim)
                elif merged != dim:
                    self.report(
                        "array-shape-conservation",
                        call,
                        f"np.concatenate parts disagree on non-axis "
                        f"dimension {i}: {_dim_str(merged)} vs "
                        f"{_dim_str(dim)} (axis={axis})",
                    )
                    merged = None
            out.append(merged)
        return ArrayValue(shape=tuple(out), dtype=dtype)

    def _reduction_result(
        self, call: ast.Call, name: str, receiver: ArrayValue, offset: int
    ):
        given, dtype = self._explicit_dtype(call, None)
        axis, axis_known = self._axis_argument(call, offset)
        if not given and receiver.dtype == DT_BOOL:
            self.report(
                "array-dtype-closure",
                call,
                f"{name}() over a bool array accumulates in the "
                "platform-default int; pass dtype=np.int64 so counts are "
                "int64 everywhere",
            )
            dtype = DT_DEFAULT_INT
        elif not given:
            dtype = receiver.dtype
        if name in ("cumsum", "cumprod"):
            if axis_known and axis is not None:
                return ArrayValue(shape=receiver.shape, dtype=dtype)
            return ArrayValue(shape=None, dtype=dtype)
        # sum/prod: drop the named axes when statically known.
        if receiver.shape is None or not axis_known:
            return ArrayValue(shape=None, dtype=dtype)
        if axis is None:
            return ScalarValue(dim=None)
        rank = len(receiver.shape)
        axes = {a % rank for a in axis if -rank <= a < rank}
        shape = tuple(
            d for i, d in enumerate(receiver.shape) if i not in axes
        )
        return ArrayValue(shape=shape, dtype=dtype)

    def _axis_argument(
        self, call: ast.Call, offset: int
    ) -> tuple[tuple[int, ...] | None, bool]:
        """``(axes, known)`` — axes None means a full reduction."""
        expr: ast.expr | None = None
        for keyword in call.keywords:
            if keyword.arg == "axis":
                expr = keyword.value
        if expr is None and len(call.args) > offset:
            expr = call.args[offset]
        if expr is None:
            return None, True
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return (expr.value,), True
        if isinstance(expr, ast.Tuple) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, int)
            for e in expr.elts
        ):
            return tuple(e.value for e in expr.elts), True
        self.eval(expr)
        return None, False

    def _eval_array_method(
        self,
        call: ast.Call,
        method: str,
        receiver: ArrayValue,
        args_offset: int = 0,
    ):
        args = call.args[args_offset:]
        if method in _ACCUMULATING_REDUCTIONS:
            # Method form: axis is the first positional after the
            # receiver-call boundary.
            shim = ast.Call(func=call.func, args=args, keywords=call.keywords)
            ast.copy_location(shim, call)
            return self._reduction_result(shim, method, receiver, offset=0)
        if method == "reshape":
            return self._eval_reshape(call, receiver, args)
        if method == "transpose":
            return self._eval_transpose(call, receiver, args)
        if method == "astype":
            dtype = self._dtype_of_expr(args[0]) if args else None
            return ArrayValue(shape=receiver.shape, dtype=dtype)
        if method == "copy":
            return receiver
        if method in ("max", "min", "mean", "all", "any"):
            for arg in args:
                self.eval(arg)
            dtype = DT_BOOL if method in ("all", "any") else receiver.dtype
            return ArrayValue(shape=None, dtype=dtype)
        for arg in args:
            self.eval(arg)
        return TOP_VALUE

    def _eval_reshape(self, call: ast.Call, receiver: ArrayValue, args):
        if len(args) == 1 and isinstance(args[0], (ast.Tuple, ast.List)):
            target = self._shape_from_arg(args[0])
        else:
            dims = [self.eval(arg) for arg in args]
            if dims and all(isinstance(d, ScalarValue) for d in dims):
                target = tuple(d.dim for d in dims)
            else:
                target = None
        if target is not None and any(
            isinstance(d, int) and d < 0 for d in target
        ):
            target = None  # -1 infers: conservation holds by construction
        if target is not None:
            verdict = reshape_conserves(receiver.shape, target)
            if verdict is False:
                self.report(
                    "array-shape-conservation",
                    call,
                    f"reshape from {_shape_str(receiver.shape)} to "
                    f"{_shape_str(target)} changes the element count; "
                    "reshapes on the delta datapath must be "
                    "count-preserving",
                )
        return ArrayValue(shape=target, dtype=receiver.dtype)

    def _eval_transpose(self, call: ast.Call, receiver: ArrayValue, args):
        if not args:
            shape = (
                tuple(reversed(receiver.shape))
                if receiver.shape is not None
                else None
            )
            return ArrayValue(shape=shape, dtype=receiver.dtype)
        if len(args) == 1 and isinstance(args[0], (ast.Tuple, ast.List)):
            axis_exprs = list(args[0].elts)
        else:
            axis_exprs = list(args)
        axes: list[int] = []
        for expr in axis_exprs:
            if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
                axes.append(expr.value)
            else:
                self.eval(expr)
                return ArrayValue(shape=None, dtype=receiver.dtype)
        if receiver.shape is not None:
            rank = len(receiver.shape)
            if sorted(a % rank if -rank <= a < rank else a for a in axes) != list(
                range(rank)
            ):
                self.report(
                    "array-shape-conservation",
                    call,
                    f"transpose axes {tuple(axes)} are not a permutation "
                    f"of the array's {rank} axes "
                    f"(shape {_shape_str(receiver.shape)})",
                )
                return ArrayValue(shape=None, dtype=receiver.dtype)
            shape = tuple(receiver.shape[a % rank] for a in axes)
            return ArrayValue(shape=shape, dtype=receiver.dtype)
        return ArrayValue(shape=None, dtype=receiver.dtype)


def _op_label(op: ast.operator) -> str:
    labels = {
        ast.Add: "elementwise +",
        ast.Sub: "elementwise -",
        ast.Mult: "elementwise *",
        ast.Div: "elementwise /",
        ast.FloorDiv: "elementwise //",
        ast.Mod: "elementwise %",
        ast.BitAnd: "elementwise &",
        ast.BitOr: "elementwise |",
        ast.BitXor: "elementwise ^",
    }
    return labels.get(type(op), "elementwise op")


def _loop_bound_names(stmt: ast.For | ast.While) -> Iterator[str]:
    """Names (re)bound anywhere inside a loop, including its target."""
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                yield from _names_in(target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            yield from _names_in(node.target)
        elif isinstance(node, ast.NamedExpr) and isinstance(
            node.target, ast.Name
        ):
            yield node.target.id
        elif isinstance(node, ast.comprehension):
            yield from _names_in(node.target)


def _names_in(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _names_in(element)
    elif isinstance(target, ast.Starred):
        yield from _names_in(target.value)


# ----------------------------------------------------------------------
# Whole-scope driver (shared across the three interpreter rules)
# ----------------------------------------------------------------------

#: One interpretation per graph, shared by the three interpreter-backed
#: rules (they filter the same finding list by rule id).
_ANALYSIS_CACHE: "weakref.WeakKeyDictionary[ProjectGraph, list[tuple[str, Finding]]]" = (
    weakref.WeakKeyDictionary()
)


def _in_scope(mod_name: str) -> bool:
    return any(
        mod_name == prefix or mod_name.startswith(prefix + ".")
        for prefix in ARRAY_SCOPE_PREFIXES
    )


def verify_arrays(
    graph: ProjectGraph, rules: "dict[str, ProjectRule] | None" = None
) -> list[tuple[str, Finding]]:
    """Interpret every scoped function; return ``(rule_id, finding)``\\ s.

    Results are memoized per graph so the three interpreter-backed rules
    pay for one interpretation between them.
    """
    if rules is None:
        cached = _ANALYSIS_CACHE.get(graph)
        if cached is not None:
            return cached
        rules = {
            rule.id: rule
            for rule in (
                ArrayDtypeClosureRule(),
                ArrayBroadcastRule(),
                ArrayShapeConservationRule(),
            )
        }
        result = verify_arrays(graph, rules)
        _ANALYSIS_CACHE[graph] = result
        return result
    findings: list[tuple[str, Finding]] = []
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        mod_name = info.module.name or info.module.path.stem
        if not _in_scope(mod_name):
            continue
        interp = _FunctionArrayInterpreter(graph, info, rules)
        interp.run()
        findings.extend(interp.findings)
    return findings


class _ArrayInterpreterRule(ProjectRule):
    """Shared driver: run (or reuse) the interpretation, filter by id."""

    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for rule_id, finding in verify_arrays(graph):
            if rule_id == self.id:
                # Re-anchor on *this* rule instance so severity and id
                # reflect the battery actually running.
                yield Finding(
                    path=finding.path,
                    line=finding.line,
                    col=finding.col,
                    rule=self.id,
                    severity=self.severity,
                    message=finding.message,
                )


class ArrayDtypeClosureRule(_ArrayInterpreterRule):
    """Every datapath array carries an explicit declared-width dtype."""

    id = "array-dtype-closure"
    severity = Severity.ERROR
    description = (
        "arrays on the MAC/delta datapath must carry an explicit "
        "declared-width dtype: no platform-default ints from bare "
        "np.arange/np.array, no dtype-less allocations, no bool-sum "
        "default accumulators, no silent downcasting stores"
    )


class ArrayBroadcastRule(_ArrayInterpreterRule):
    """Broadcasts happen only along axes provably sized 1."""

    id = "array-broadcast"
    severity = Severity.ERROR
    description = (
        "elementwise ops, np.where, and @ may broadcast only along axes "
        "provably sized 1 at the alignment site; two known unequal "
        "non-unit dimensions are an accidental outer product"
    )


class ArrayShapeConservationRule(_ArrayInterpreterRule):
    """reshape/transpose/concatenate preserve counts and axes."""

    id = "array-shape-conservation"
    severity = Severity.ERROR
    description = (
        "reshape must preserve the symbolic element count, transpose "
        "axes must permute the array's rank, and concatenate parts must "
        "agree on every non-concatenation axis"
    )


class ArrayAllocInLoopRule(ProjectRule):
    """Hoistable allocations do not belong inside hot loops."""

    id = "array-alloc-in-loop"
    severity = Severity.WARNING
    description = (
        "a fresh-array allocation inside a loop with loop-invariant "
        "arguments is hoistable; in per-site/per-cycle kernels the "
        "allocation cost rivals the arithmetic"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            mod_name = info.module.name or info.module.path.stem
            if not _in_scope(mod_name):
                continue
            yield from self._check_function(graph, info, mod_name)

    def _check_function(
        self, graph: ProjectGraph, info: FunctionInfo, mod_name: str
    ) -> Iterator[Finding]:
        reported: set[int] = set()
        for loop in ast.walk(info.node):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            bound = set(_loop_bound_names(loop))
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call) or id(node) in reported:
                    continue
                dotted = graph._dotted_external(mod_name, node.func)
                if dotted is None or not dotted.startswith("numpy."):
                    continue
                name = dotted.removeprefix("numpy.")
                if name not in CREATION_FUNCTIONS:
                    continue
                if self._depends_on(node, bound):
                    continue
                reported.add(id(node))
                yield self.finding(
                    info.module,
                    node,
                    f"np.{name}() allocates inside a loop but none of its "
                    "arguments change across iterations; hoist the "
                    "allocation out of the loop and reuse the buffer",
                )

    @staticmethod
    def _depends_on(call: ast.Call, bound: set[str]) -> bool:
        for node in ast.walk(call):
            if isinstance(node, ast.Name) and node.id in bound:
                return True
        return False


#: The array battery, in documentation order.
ARRAY_RULES: tuple[ProjectRule, ...] = (
    ArrayDtypeClosureRule(),
    ArrayBroadcastRule(),
    ArrayShapeConservationRule(),
    ArrayAllocInLoopRule(),
)
