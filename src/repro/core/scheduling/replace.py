"""``replace``: swap a loop nest for a hardware instruction, safely.

This is the primitive the paper's Section II-B calls Exo's "security
definition": the user may only substitute an ``@instr`` for a loop nest when
the instruction's *semantic body* unifies with that nest.  Unification must
discover, for every instruction argument, what concrete buffer window or
index expression realizes it — and must prove the instruction's declared
preconditions (strides, lane bounds) at the call site.

The unifier handles the instruction shapes that appear in vector ISAs:

* loop nests with constant or size-parameter bounds,
* window arguments accessed as ``x[i]`` (a loop variable), ``x[l]`` (an
  index argument — the *lane selector* of ``vfmaq_laneq_f32``), or ``x[0]``
  (a broadcast source),
* scalar/size/index arguments appearing directly in expressions.

On success the nest is replaced by a :class:`~repro.core.loopir.Call` whose
arguments are ``WindowExpr`` slices of the concrete buffers; the C backend
later splices the instruction's format string, and the interpreter executes
the instruction's body, so both paths stay faithful to the semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..affine import LinExpr, delinearize, exprs_equal, linearize, try_constant
from ..effects import Bounds, expr_range
from ..loopir import (
    Alloc,
    Assign,
    BinOp,
    Call,
    Const,
    Expr,
    For,
    Interval,
    Point,
    Proc,
    Read,
    Reduce,
    Stmt,
    StrideExpr,
    USub,
    WindowExpr,
)
from ..memory import DRAM, GENERIC, Memory
from ..patterns import get_stmt, replace_at
from ..prelude import SchedulingError, Sym
from ..proc import Procedure
from ..traversal import expr_symbols
from ..typesys import INDEX, SIZE, TensorType, types_compatible
from .buffers import _bounds_at, _mem_of, _type_of
from .subst import fold_constants


@dataclass
class _AccessPair:
    """One matched access: instruction-side indices vs concrete indices."""

    instr_idx: Tuple[Expr, ...]
    concrete_buf: Sym
    concrete_idx: Tuple[Expr, ...]


@dataclass
class _Unifier:
    """Unification state while matching an instruction body to a nest."""

    instr: Proc
    bounds: Bounds
    loop_map: Dict[Sym, Sym] = field(default_factory=dict)
    value_map: Dict[Sym, Expr] = field(default_factory=dict)  # size/index args
    accesses: Dict[Sym, List[_AccessPair]] = field(default_factory=dict)

    def fail(self, msg: str):
        raise SchedulingError(f"replace with {self.instr.name}: {msg}")

    # -- symbol classification ----------------------------------------------

    def arg_kind(self, sym: Sym) -> Optional[str]:
        for a in self.instr.args:
            if a.name == sym:
                if isinstance(a.type, TensorType):
                    return "tensor"
                if a.type is SIZE:
                    return "size"
                if a.type is INDEX:
                    return "index"
                return "scalar"
        return None

    # -- expression translation ----------------------------------------------

    def translate(self, e: Expr) -> Expr:
        """Rewrite an instruction-side index expr into concrete symbols."""

        def go(sub: Expr) -> Expr:
            if isinstance(sub, Read) and not sub.idx:
                if sub.name in self.loop_map:
                    return Read(self.loop_map[sub.name], (), INDEX, sub.srcinfo)
                if sub.name in self.value_map:
                    return self.value_map[sub.name]
            return sub

        from ..traversal import map_expr

        return map_expr(e, go)

    # -- matching -------------------------------------------------------------

    def match_block(self, instr_block: Tuple[Stmt, ...], concrete_block):
        instr_stmts = [s for s in instr_block if not isinstance(s, Alloc)]
        if len(instr_stmts) != len(concrete_block):
            self.fail(
                f"body has {len(instr_stmts)} statements, nest has "
                f"{len(concrete_block)}"
            )
        for a, b in zip(instr_stmts, concrete_block):
            self.match_stmt(a, b)

    def match_stmt(self, istmt: Stmt, cstmt: Stmt):
        if isinstance(istmt, For):
            if not isinstance(cstmt, For):
                self.fail(f"expected a loop, found {type(cstmt).__name__}")
            self.match_bound(istmt.lo, cstmt.lo)
            self.match_bound(istmt.hi, cstmt.hi)
            self.loop_map[istmt.iter] = cstmt.iter
            self.match_block(istmt.body, cstmt.body)
            return
        if isinstance(istmt, (Assign, Reduce)):
            if type(istmt) is not type(cstmt):
                self.fail("assignment/reduction kinds differ")
            self.record_access(istmt.name, istmt.idx, cstmt.name, cstmt.idx)
            self.match_expr(istmt.rhs, cstmt.rhs)
            return
        self.fail(f"unsupported statement {type(istmt).__name__} in instruction")

    def match_bound(self, ibound: Expr, cbound: Expr):
        iconst = try_constant(ibound)
        if iconst is not None:
            cconst = try_constant(cbound)
            if cconst != iconst:
                self.fail(f"loop bound {cconst} != required {iconst}")
            return
        if isinstance(ibound, Read) and not ibound.idx:
            kind = self.arg_kind(ibound.name)
            if kind in ("size", "index"):
                self.bind_value(ibound.name, cbound)
                return
        self.fail("instruction loop bounds must be constants or size args")

    def bind_value(self, sym: Sym, expr: Expr):
        if sym in self.value_map:
            if not exprs_equal(self.value_map[sym], expr):
                self.fail(f"conflicting bindings for argument {sym.name}")
        else:
            self.value_map[sym] = expr

    def record_access(self, isym: Sym, iidx, csym: Sym, cidx):
        kind = self.arg_kind(isym)
        if kind != "tensor":
            self.fail(f"instruction writes non-tensor {isym.name}")
        self.accesses.setdefault(isym, []).append(
            _AccessPair(tuple(iidx), csym, tuple(cidx))
        )

    def match_expr(self, ie: Expr, ce: Expr):
        if isinstance(ie, Read):
            kind = self.arg_kind(ie.name)
            if kind == "tensor":
                if isinstance(ce, Read) and ce.idx:
                    self.record_access(ie.name, ie.idx, ce.name, ce.idx)
                    return
                self.fail(
                    f"argument {ie.name.name} must match a buffer access"
                )
            if kind in ("size", "index", "scalar"):
                self.bind_value(ie.name, ce)
                return
            if ie.name in self.loop_map:
                if not exprs_equal(
                    Read(self.loop_map[ie.name], (), INDEX), ce
                ):
                    self.fail(
                        f"loop variable {ie.name.name} does not line up"
                    )
                return
            self.fail(f"unknown instruction symbol {ie.name.name}")
        if isinstance(ie, Const):
            if not (isinstance(ce, Const) and ce.val == ie.val):
                self.fail(f"constant {ie.val} does not match")
            return
        if isinstance(ie, BinOp):
            if not (isinstance(ce, BinOp) and ce.op == ie.op):
                self.fail(f"operator {ie.op} does not match")
            self.match_expr(ie.lhs, ce.lhs)
            self.match_expr(ie.rhs, ce.rhs)
            return
        if isinstance(ie, USub):
            if not isinstance(ce, USub):
                self.fail("unary minus does not match")
            self.match_expr(ie.arg, ce.arg)
            return
        self.fail(f"unsupported expression {type(ie).__name__} in instruction")


# ---------------------------------------------------------------------------
# Window solving
# ---------------------------------------------------------------------------


def _shape_extent(uni: _Unifier, dim_expr: Expr) -> int:
    translated = uni.translate(dim_expr)
    val = try_constant(translated)
    if val is None:
        uni.fail("window extents must resolve to constants")
    return val


def _solve_window(uni: _Unifier, arg, ir: Proc):
    """Derive the concrete window for tensor argument ``arg``.

    Returns ``(buf_sym, [Point|Interval per concrete dim], lane_exprs)``
    where lane_exprs maps instruction index-arg symbols solved during the
    search.  See the module docstring for the supported access shapes.
    """
    pairs = uni.accesses.get(arg.name)
    if not pairs:
        uni.fail(f"argument {arg.name.name} never accessed in the body")
    buf = pairs[0].concrete_buf
    if any(p.concrete_buf != buf for p in pairs):
        uni.fail(f"argument {arg.name.name} matches two different buffers")

    buf_type = _type_of(ir, buf)
    if not isinstance(buf_type, TensorType):
        uni.fail(f"{buf} is not a tensor")
    m = buf_type.rank()
    extents = [_shape_extent(uni, d) for d in arg.type.shape]
    r = len(extents)
    buf_dims = [try_constant(d) for d in buf_type.shape]

    first = pairs[0]
    if len(first.instr_idx) != r:
        uni.fail(f"argument {arg.name.name} rank mismatch")

    # dim_for[j] = concrete dimension realizing window dim j
    dim_for: List[Optional[int]] = [None] * r
    base: List[Optional[LinExpr]] = [None] * m
    lane_bindings: Dict[Sym, Expr] = {}

    concrete_lin = []
    for e in first.concrete_idx:
        lin = linearize(e)
        if lin is None:
            uni.fail(f"non-affine index on {buf} prevents window extraction")
        concrete_lin.append(lin)

    taken: set = set()

    # Pass 1: instruction indices that are loop variables — their mapped
    # concrete iterator must appear with coefficient 1 in exactly one dim.
    deferred: List[int] = []
    for j, iidx in enumerate(first.instr_idx):
        if (
            isinstance(iidx, Read)
            and not iidx.idx
            and iidx.name in uni.loop_map
        ):
            w = uni.loop_map[iidx.name]
            hits = [
                d
                for d in range(m)
                if concrete_lin[d].terms.get(w, 0) != 0 and d not in taken
            ]
            if len(hits) != 1:
                uni.fail(
                    f"iterator {w.name} must index exactly one dimension "
                    f"of {buf}"
                )
            d = hits[0]
            if concrete_lin[d].terms.get(w) != 1:
                uni.fail(
                    f"non-unit coefficient on {w.name}: strided windows "
                    "are not supported"
                )
            rest = concrete_lin[d].copy()
            rest.add_term(w, -1)
            dim_for[j] = d
            base[d] = rest
            taken.add(d)
        else:
            deferred.append(j)

    # Pass 2: constants and index-argument selectors — pick the rightmost
    # free dimension that can contain the window extent.
    for j in deferred:
        iidx = first.instr_idx[j]
        placed = False
        for d in range(m - 1, -1, -1):
            if d in taken:
                continue
            if buf_dims[d] is not None and buf_dims[d] < extents[j]:
                continue
            lin = concrete_lin[d]
            rng = expr_range(delinearize(lin), uni.bounds)
            if rng is None:
                continue
            lo, hi = rng
            cval = try_constant(iidx)
            if cval is not None:
                # broadcast-style x[c]: base = e_d - c
                b = lin.copy()
                b.offset -= cval
                base[d] = b
                dim_for[j] = d
                taken.add(d)
                placed = True
                break
            if (
                isinstance(iidx, Read)
                and not iidx.idx
                and uni.arg_kind(iidx.name) == "index"
            ):
                if hi - lo + 1 > extents[j]:
                    continue
                # choose base = the provable lower bound; lane = e_d - base
                b = LinExpr({}, lo)
                lane = lin.copy()
                lane.offset -= lo
                lane_expr = delinearize(lane)
                prev = lane_bindings.get(iidx.name)
                if prev is not None and not exprs_equal(prev, lane_expr):
                    uni.fail(
                        f"conflicting lane expressions for {iidx.name.name}"
                    )
                lane_bindings[iidx.name] = lane_expr
                base[d] = b
                dim_for[j] = d
                taken.add(d)
                placed = True
                break
            uni.fail(
                f"unsupported index form for argument {arg.name.name}"
            )
        if not placed:
            uni.fail(
                f"cannot place window dimension {j} of {arg.name.name} "
                f"on buffer {buf}"
            )

    # Remaining dims are points.
    for d in range(m):
        if d not in taken:
            base[d] = concrete_lin[d]

    # Pass 3: every other access pair must agree with the derived window.
    for p in pairs[1:]:
        if len(p.instr_idx) != r:
            uni.fail(f"argument {arg.name.name} rank mismatch")
        for j in range(r):
            d = dim_for[j]
            expected = base[d].plus(_lin_of_translated(uni, p.instr_idx[j], lane_bindings))
            actual = linearize(p.concrete_idx[d])
            if actual is None or actual != expected:
                uni.fail(
                    f"inconsistent accesses to argument {arg.name.name}"
                )
        point_dims = [d for d in range(m) if d not in taken]
        for d in point_dims:
            actual = linearize(p.concrete_idx[d])
            if actual is None or actual != base[d]:
                uni.fail(
                    f"inconsistent point indices for {arg.name.name}"
                )

    windows: List[Expr] = []
    for d in range(m):
        b = delinearize(base[d])
        j = dim_for.index(d) if d in taken else None
        if j is None:
            windows.append(Point(b))
        else:
            hi_lin = base[d].copy()
            hi_lin.offset += extents[j]
            windows.append(Interval(b, delinearize(hi_lin)))

    # interleave Interval order check: window dims must appear in argument
    # order along the buffer (row-major nesting)
    ordered = [dim_for[j] for j in range(r)]
    if ordered != sorted(ordered):
        uni.fail(
            f"window dimensions of {arg.name.name} are transposed relative "
            f"to buffer {buf}"
        )

    return buf, windows, lane_bindings, dim_for


def _lin_of_translated(uni: _Unifier, iidx: Expr, lanes: Dict[Sym, Expr]) -> LinExpr:
    def subst(e: Expr) -> Expr:
        if isinstance(e, Read) and not e.idx:
            if e.name in uni.loop_map:
                return Read(uni.loop_map[e.name], (), INDEX)
            if e.name in lanes:
                return lanes[e.name]
            if e.name in uni.value_map:
                return uni.value_map[e.name]
        return e

    from ..traversal import map_expr

    lin = linearize(map_expr(iidx, subst))
    if lin is None:
        uni.fail(f"non-affine instruction index {iidx}")
    return lin


# ---------------------------------------------------------------------------
# Precondition checking
# ---------------------------------------------------------------------------


def _static_stride(ir: Proc, buf: Sym, dim: int) -> Optional[int]:
    """Element stride of ``buf``'s ``dim`` under row-major layout.

    The stride of dimension ``d`` is the product of the extents of all
    trailing dimensions; None when any of those extents is symbolic.
    """
    buf_type = _type_of(ir, buf)
    stride = 1
    for trailing in buf_type.shape[dim + 1 :]:
        val = try_constant(trailing)
        if val is None:
            return None
        stride *= val
    return stride


def _check_preds(uni: _Unifier, ir: Proc, windows: Dict[Sym, tuple]):
    """Verify the instruction's declared preconditions at the call site."""
    for pred in uni.instr.preds:
        if _is_stride_pred(pred):
            stride_e, required = pred.lhs, try_constant(pred.rhs)
            assert isinstance(stride_e, StrideExpr)
            buf, wins, _, dim_for = windows[stride_e.name]
            interval_dims = [
                d for d, w in enumerate(wins) if isinstance(w, Interval)
            ]
            concrete_dim = interval_dims[stride_e.dim]
            actual = _static_stride(ir, buf, concrete_dim)
            if actual != required:
                uni.fail(
                    f"stride({stride_e.name.name}, {stride_e.dim}) == "
                    f"{required} cannot be guaranteed: the window dimension "
                    f"has stride {actual} on {buf}"
                )
            continue
        # value predicates over index/size args, e.g. l >= 0, l < 4
        translated = uni.translate(pred)
        if not _prove_bool(translated, uni.bounds):
            from ..pprint import expr_to_str

            uni.fail(f"cannot prove precondition {expr_to_str(pred)}")


def _is_stride_pred(pred: Expr) -> bool:
    return (
        isinstance(pred, BinOp)
        and pred.op == "=="
        and isinstance(pred.lhs, StrideExpr)
        and try_constant(pred.rhs) is not None
    )


def _prove_bool(pred: Expr, bounds: Bounds) -> bool:
    if not isinstance(pred, BinOp):
        return False
    if pred.op == "and":
        return _prove_bool(pred.lhs, bounds) and _prove_bool(pred.rhs, bounds)
    diff = BinOp("-", pred.lhs, pred.rhs, INDEX)
    rng = expr_range(diff, bounds)
    if rng is None:
        return False
    lo, hi = rng
    if pred.op == "<":
        return hi < 0
    if pred.op == "<=":
        return hi <= 0
    if pred.op == ">":
        return lo > 0
    if pred.op == ">=":
        return lo >= 0
    if pred.op == "==":
        return lo == 0 and hi == 0
    return False


def _check_memory(uni: _Unifier, ir: Proc, arg, buf: Sym):
    """Reject clearly wrong operand placements.

    A DRAM buffer may flow into a register-file operand: the paper's idiom
    is ``replace`` first, ``set_memory`` after, so promotion is deferred
    (the C backend performs the final placement check).  What is rejected
    here: two *different* register files, and register-resident buffers
    feeding operands that must address memory.
    """
    declared: Memory = arg.mem or DRAM
    actual: Memory = _mem_of(ir, buf)
    if declared is GENERIC or declared is actual:
        return
    if declared.is_register_file and actual.is_register_file:
        uni.fail(
            f"argument {arg.name.name} requires register file {declared} "
            f"but {buf} lives in {actual}"
        )
    if not declared.is_register_file and actual.is_register_file:
        uni.fail(
            f"argument {arg.name.name} must address memory but {buf} "
            f"lives in register file {actual}"
        )


def _check_dtype(uni: _Unifier, ir: Proc, arg, buf: Sym):
    buf_type = _type_of(ir, buf)
    if not types_compatible(buf_type.basetype(), arg.type.basetype()):
        uni.fail(
            f"argument {arg.name.name} has type {arg.type.basetype()} but "
            f"{buf} holds {buf_type.basetype()}"
        )


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


def _no_captured_iterators(uni: _Unifier, windows, lane_bindings) -> None:
    """Window bases and value bindings must not reference iterators of the
    loops being replaced — those variables cease to exist after the call."""
    captured = set(uni.loop_map.values())

    def check_expr(e: Expr, what: str):
        lin = linearize(e)
        syms = expr_symbols(e) if lin is None else set(lin.terms)
        if syms & captured:
            bad = ", ".join(s.name for s in syms & captured)
            uni.fail(f"{what} would capture eliminated iterator(s) {bad}")

    for buf, wins, _, _ in windows.values():
        for w in wins:
            if isinstance(w, Interval):
                check_expr(w.lo, f"window of {buf}")
            else:
                check_expr(w.pt, f"window of {buf}")
    for sym, expr in lane_bindings.items():
        check_expr(expr, f"binding of {sym.name}")


def _try_replace_at(p: Procedure, path, instruction: Procedure) -> Procedure:
    """Attempt unification + substitution at one statement; may raise."""
    target = get_stmt(p.ir, path)
    bounds = _bounds_at(p.ir, path)

    uni = _Unifier(instruction.ir, bounds)
    uni.match_block(instruction.ir.body, [target])

    windows: Dict[Sym, tuple] = {}
    lane_bindings: Dict[Sym, Expr] = {}
    for arg in instruction.ir.args:
        if isinstance(arg.type, TensorType):
            buf, wins, lanes, dim_for = _solve_window(uni, arg, p.ir)
            windows[arg.name] = (buf, wins, lanes, dim_for)
            lane_bindings.update(lanes)
            _check_memory(uni, p.ir, arg, buf)
            _check_dtype(uni, p.ir, arg, buf)

    for sym, expr in lane_bindings.items():
        uni.bind_value(sym, expr)

    _no_captured_iterators(uni, windows, lane_bindings)
    _check_preds(uni, p.ir, windows)

    call_args: List[Expr] = []
    for arg in instruction.ir.args:
        if isinstance(arg.type, TensorType):
            buf, wins, _, _ = windows[arg.name]
            buf_type = _type_of(p.ir, buf)
            out_shape = []
            for w in wins:
                if isinstance(w, Interval):
                    out_shape.append(BinOp("-", w.hi, w.lo, INDEX))
            wtyp = TensorType(buf_type.basetype(), tuple(out_shape), window=True)
            call_args.append(
                WindowExpr(buf, tuple(wins), wtyp, target.srcinfo)
            )
        else:
            if arg.name not in uni.value_map:
                uni.fail(f"argument {arg.name.name} was never determined")
            call_args.append(uni.value_map[arg.name])

    call = Call(instruction.ir, tuple(call_args), target.srcinfo)
    return Procedure(fold_constants(replace_at(p.ir, path, [call])))


def replace(p: Procedure, pattern: str, instruction: Procedure) -> Procedure:
    """Replace the loop nest matched by ``pattern`` with ``instruction``.

    Candidates matching ``pattern`` are tried in program order; the first
    one whose unification succeeds is replaced (this is why the paper can
    issue two identical ``replace(p, 'for itt in _: _', ...)`` calls for
    the load and the store: the already-replaced nest no longer matches).
    If no candidate unifies, the error from the *last* candidate is raised
    with a summary of all failures.
    """
    from ..patterns import find_all_stmts, parse_pattern

    compiled = parse_pattern(pattern)
    paths = find_all_stmts(p.ir, compiled)
    if not paths:
        raise SchedulingError(
            f"replace: pattern {pattern!r} matched nothing in {p.name()}"
        )
    if compiled.index is not None:
        if compiled.index >= len(paths):
            raise SchedulingError(
                f"replace: pattern {pattern!r} has no match #{compiled.index}"
            )
        paths = [paths[compiled.index]]
    failures: List[str] = []
    for path in paths:
        try:
            return _try_replace_at(p, path, instruction)
        except SchedulingError as exc:
            failures.append(str(exc))
    raise SchedulingError(
        f"replace: no candidate for {pattern!r} unifies with "
        f"{instruction.name()}:\n  " + "\n  ".join(failures)
    )
