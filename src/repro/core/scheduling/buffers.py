"""Buffer scheduling primitives: staging, dimension expansion, lifting.

These transforms introduce and shape the register buffers of a micro-kernel
(Figures 8 and 9 of the paper):

* :func:`stage_mem` — bind one element of a buffer to a new scalar and
  rewrite a statement to use it, inserting the load and store copies.
* :func:`bind_expr` — bind a read expression to a new scalar (used for the
  ``Ac``/``Bc`` operands, which are only read).
* :func:`expand_dim` — prepend a dimension to an allocation, indexing every
  access by a supplied affine expression (bounds-checked).
* :func:`lift_alloc` — hoist an allocation out of enclosing loops.
* :func:`set_memory` / :func:`set_precision` — retarget an allocation's
  storage class or scalar type.
"""

from __future__ import annotations

import ast as python_ast
from typing import Dict, List, Optional

from ..affine import exprs_equal
from ..effects import Bounds, expr_range, loop_bounds_const
from ..loopir import (
    Alloc,
    Assign,
    BinOp,
    Call,
    Const,
    Expr,
    For,
    Read,
    Reduce,
    Stmt,
    USub,
    update,
)
from ..memory import Memory
from ..patterns import find_alloc, find_stmt, get_stmt, replace_at
from ..prelude import SchedulingError, Sym
from ..proc import Procedure
from ..traversal import map_expr, map_stmts, stmt_mentions, stmt_uses_sym
from ..typesys import INDEX, TensorType, parse_scalar_type
from .subst import fold_constants

# ---------------------------------------------------------------------------
# Parsing index-expression strings ('jt * 4 + jtt') against in-scope symbols
# ---------------------------------------------------------------------------


def _parse_index_string(text: str, scope: Dict[str, Sym]) -> Expr:
    """Parse a user-supplied affine index string against visible symbols."""
    try:
        tree = python_ast.parse(text.strip(), mode="eval").body
    except SyntaxError as exc:
        raise SchedulingError(f"cannot parse index {text!r}: {exc}") from None

    def build(node) -> Expr:
        if isinstance(node, python_ast.Constant) and isinstance(node.value, int):
            return Const(node.value, INDEX)
        if isinstance(node, python_ast.Name):
            if node.id not in scope:
                raise SchedulingError(
                    f"index {text!r} references unknown name {node.id!r}"
                )
            return Read(scope[node.id], (), INDEX)
        if isinstance(node, python_ast.UnaryOp) and isinstance(
            node.op, python_ast.USub
        ):
            return USub(build(node.operand), INDEX)
        if isinstance(node, python_ast.BinOp):
            ops = {
                python_ast.Add: "+",
                python_ast.Sub: "-",
                python_ast.Mult: "*",
                python_ast.FloorDiv: "/",
                python_ast.Mod: "%",
            }
            op = ops.get(type(node.op))
            if op is None:
                raise SchedulingError(f"unsupported operator in {text!r}")
            return BinOp(op, build(node.left), build(node.right), INDEX)
        raise SchedulingError(f"unsupported index syntax in {text!r}")

    return build(tree)


def _parse_point_access(text: str, scope: Dict[str, Sym]):
    """Parse ``'C[4 * jt + jtt, 4 * it + itt]'`` -> (Sym, [Expr, ...])."""
    try:
        tree = python_ast.parse(text.strip(), mode="eval").body
    except SyntaxError as exc:
        raise SchedulingError(f"cannot parse access {text!r}: {exc}") from None
    if not (
        isinstance(tree, python_ast.Subscript)
        and isinstance(tree.value, python_ast.Name)
    ):
        raise SchedulingError(f"expected 'buf[indices]' in {text!r}")
    if tree.value.id not in scope:
        raise SchedulingError(f"unknown buffer {tree.value.id!r} in {text!r}")
    items = (
        tree.slice.elts if isinstance(tree.slice, python_ast.Tuple) else [tree.slice]
    )
    import ast as _ast

    idx = []
    for item in items:
        segment = _ast.unparse(item)
        idx.append(_parse_index_string(segment, scope))
    return scope[tree.value.id], idx


# ---------------------------------------------------------------------------
# Scope discovery: what symbols are visible at a statement path
# ---------------------------------------------------------------------------


def _scope_at(ir, path) -> Dict[str, Sym]:
    """Display-name -> Sym for args, allocs, and loop iterators visible at
    ``path``.  Later definitions shadow earlier ones of the same name."""
    scope: Dict[str, Sym] = {a.name.name: a.name for a in ir.args}
    block = ir.body
    for depth, idx in enumerate(path):
        for s in block[: idx + 1]:
            if isinstance(s, Alloc):
                scope[s.name.name] = s.name
        stmt = block[idx]
        if depth < len(path) - 1:
            assert isinstance(stmt, For)
            scope[stmt.iter.name] = stmt.iter
            block = stmt.body
    return scope


def _bounds_at(ir, path) -> Bounds:
    """Iterator ranges (inclusive) for the loops enclosing ``path``."""
    bounds: Bounds = {}
    block = ir.body
    for depth, idx in enumerate(path[:-1]):
        stmt = block[idx]
        assert isinstance(stmt, For)
        rng = loop_bounds_const(stmt.lo, stmt.hi, bounds)
        if rng is not None:
            bounds[stmt.iter] = rng
        block = stmt.body
    return bounds


# ---------------------------------------------------------------------------
# stage_mem / bind_expr
# ---------------------------------------------------------------------------


def stage_mem(
    p: Procedure, stmt_pattern: str, access: str, new_name: str
) -> Procedure:
    """Stage one element of a buffer through a fresh scalar.

    ``access`` names the element (``'C[4 * jt + jtt, 4 * it + itt]'``); the
    statement matched by ``stmt_pattern`` has every read/write of that
    element rewritten to the new scalar, and load/store copies are inserted
    around it::

        C_reg: f32 @ DRAM
        C_reg = C[...]
        <statement using C_reg>
        C[...] = C_reg

    Subsequent ``expand_dim`` / ``lift_alloc`` / ``autofission`` calls grow
    the scalar into the register tile of Figure 8.
    """
    cursor = find_stmt(p.ir, stmt_pattern)
    target = cursor.stmt()
    if not isinstance(target, (Assign, Reduce)):
        raise SchedulingError("stage_mem targets an assignment or reduction")
    scope = _scope_at(p.ir, cursor.path)
    buf, idx = _parse_point_access(access, scope)
    buf_type = _type_of(p.ir, buf)
    if not isinstance(buf_type, TensorType):
        raise SchedulingError(f"{access!r} does not address a tensor")
    if len(idx) != buf_type.rank():
        raise SchedulingError(
            f"{access!r} must fully index the tensor (rank {buf_type.rank()})"
        )

    reg = Sym(new_name)
    src = target.srcinfo

    def rewrite(e: Expr) -> Expr:
        if (
            isinstance(e, Read)
            and e.name == buf
            and len(e.idx) == len(idx)
            and all(exprs_equal(a, b) for a, b in zip(e.idx, idx))
        ):
            return Read(reg, (), buf_type.base, e.srcinfo)
        return e

    new_rhs = map_expr(target.rhs, rewrite)
    lhs_staged = target.name == buf and all(
        exprs_equal(a, b) for a, b in zip(target.idx, idx)
    )
    if lhs_staged:
        new_target = update(target, name=reg, idx=(), rhs=new_rhs)
    else:
        new_target = update(target, rhs=new_rhs)
    if new_target == target:
        raise SchedulingError(f"{access!r} does not occur in the statement")

    # A pure overwrite (Assign whose right-hand side does not read the
    # staged element) needs no load copy — the staged value is dead.
    rhs_reads_element = new_rhs != target.rhs
    needs_load = isinstance(target, Reduce) or rhs_reads_element or not lhs_staged

    stmts: List[Stmt] = [Alloc(reg, buf_type.base, _mem_of(p.ir, buf), src)]
    if needs_load:
        stmts.append(
            Assign(reg, (), Read(buf, tuple(idx), buf_type.base, src), src)
        )
    stmts.append(new_target)
    if lhs_staged:
        stmts.append(
            Assign(buf, tuple(idx), Read(reg, (), buf_type.base, src), src)
        )
    return Procedure(fold_constants(replace_at(p.ir, cursor.path, stmts)))


def bind_expr(p: Procedure, expr_pattern: str, new_name: str) -> Procedure:
    """Bind a read expression to a fresh scalar.

    ``expr_pattern`` is ``'Buf[_]'``: the first read of ``Buf`` (in program
    order) is replaced by a new scalar, loaded just before the statement
    containing it.  All reads of the same element *within that statement*
    are rewritten together.
    """
    raw = expr_pattern.strip()
    if not raw.endswith("[_]"):
        raise SchedulingError(f"bind_expr pattern must look like 'Buf[_]': {raw!r}")
    buf_name = raw[:-3].strip()

    hit = _find_first_read(p.ir, buf_name)
    if hit is None:
        raise SchedulingError(f"no read of {buf_name!r} found")
    path, read = hit
    target = get_stmt(p.ir, path)
    reg = Sym(new_name)
    src = read.srcinfo

    def rewrite(e: Expr) -> Expr:
        if (
            isinstance(e, Read)
            and e.name == read.name
            and len(e.idx) == len(read.idx)
            and all(exprs_equal(a, b) for a, b in zip(e.idx, read.idx))
        ):
            return Read(reg, (), read.type, e.srcinfo)
        return e

    assert isinstance(target, (Assign, Reduce))
    new_target = update(target, rhs=map_expr(target.rhs, rewrite))
    stmts: List[Stmt] = [
        Alloc(reg, read.type, _mem_of(p.ir, read.name), src),
        Assign(reg, (), read, src),
        new_target,
    ]
    return Procedure(replace_at(p.ir, path, stmts))


def _find_first_read(ir, buf_name: str):
    """First (path, Read) of a tensor element whose buffer displays as
    ``buf_name``, scanning statement right-hand sides in program order."""
    found = []

    def scan_stmt(path, s):
        if found:
            return
        if isinstance(s, (Assign, Reduce)):
            reads = []

            def collect(e):
                if isinstance(e, Read) and e.name.name == buf_name and e.idx:
                    reads.append(e)
                return e

            map_expr(s.rhs, collect)
            if reads:
                found.append((path, reads[0]))
        elif isinstance(s, For):
            for i, sub in enumerate(s.body):
                scan_stmt(path + (i,), sub)

    for i, s in enumerate(ir.body):
        scan_stmt((i,), s)
    return found[0] if found else None


# ---------------------------------------------------------------------------
# expand_dim
# ---------------------------------------------------------------------------


def expand_dim(
    p: Procedure, name: str, size: object, index: str
) -> Procedure:
    """Prepend a dimension of extent ``size`` to allocation ``name``.

    Every access to the buffer inside the allocation's scope gains the
    affine ``index`` expression (a string over in-scope iterators, e.g.
    ``'jt * 4 + jtt'``) as its new leading index.  The expression is
    interval-checked against the enclosing loop bounds at every access site:
    it must provably lie in ``[0, size)``.
    """
    cursor = find_alloc(p.ir, name)
    alloc = cursor.stmt()
    assert isinstance(alloc, Alloc)
    size_expr = (
        Const(int(size), INDEX) if isinstance(size, int) else size
    )

    old_type = alloc.type
    if isinstance(old_type, TensorType):
        new_type = old_type.with_shape((size_expr,) + old_type.shape)
    else:
        new_type = TensorType(old_type, (size_expr,))
    new_alloc = update(alloc, type=new_type)

    ir = replace_at(p.ir, cursor.path, [new_alloc])

    # Rewrite accesses everywhere the buffer is visible, validating bounds.
    # Statements that never mention the buffer are kept as they are; the
    # index string is parsed once per scope, the first time a statement
    # in that scope needs it.
    buf = alloc.name
    size_const = size if isinstance(size, int) else None

    def rewrite_block(block, scope, bounds: Bounds):
        out = []
        parsed = None
        for s in block:
            if isinstance(s, Alloc):
                scope = {**scope, s.name.name: s.name}
                parsed = None
            if not stmt_mentions(s, buf):
                out.append(s)
                continue
            if isinstance(s, For):
                inner = dict(bounds)
                rng = loop_bounds_const(s.lo, s.hi, bounds)
                if rng is not None:
                    inner[s.iter] = rng
                body_scope = {**scope, s.iter.name: s.iter}
                body = rewrite_block(s.body, body_scope, inner)
                out.append(update(s, body=body))
                continue
            if not isinstance(s, (Assign, Reduce, Call)):
                out.append(s)
                continue
            if parsed is None:
                parsed = _parse_index_string(index, scope)

            def grow(idx):
                _check_in_range(parsed, size_const, bounds, index)
                return (parsed,) + idx

            def fix_expr(e: Expr) -> Expr:
                if isinstance(e, Read) and e.name == buf:
                    return update(e, idx=grow(e.idx))
                return e

            if isinstance(s, Call):
                args = tuple(map_expr(a, fix_expr) for a in s.args)
                out.append(update(s, args=args))
                continue
            new_s = update(
                s,
                idx=tuple(map_expr(i_, fix_expr) for i_ in s.idx),
                rhs=map_expr(s.rhs, fix_expr),
            )
            if s.name == buf:
                new_s = update(new_s, idx=grow(new_s.idx))
            out.append(new_s)
        return tuple(out)

    arg_scope = {a.name.name: a.name for a in ir.args}
    new_ir = update(ir, body=rewrite_block(ir.body, arg_scope, {}))
    return Procedure(fold_constants(new_ir))


def _check_in_range(e: Expr, size: Optional[int], bounds: Bounds, text: str):
    if size is None:
        return
    rng = expr_range(e, bounds)
    if rng is None:
        raise SchedulingError(
            f"cannot bound index {text!r} at an access site; "
            "make loop bounds static first"
        )
    lo, hi = rng
    if lo < 0 or hi >= size:
        raise SchedulingError(
            f"index {text!r} ranges over [{lo}, {hi}] which exceeds [0, {size})"
        )


# ---------------------------------------------------------------------------
# lift_alloc
# ---------------------------------------------------------------------------


def lift_alloc(p: Procedure, name: str, n_lifts: int = 1) -> Procedure:
    """Hoist allocation ``name`` out of up to ``n_lifts`` enclosing loops.

    The allocation must not depend on the loop iterators it crosses (its
    shape was fixed by prior ``expand_dim`` calls).  Lifting past the top of
    the enclosing loop nest stops early, matching Exo's forgiving behaviour
    for the common ``n_lifts=5`` idiom of the paper.
    """
    cursor = find_alloc(p.ir, name)
    alloc = cursor.stmt()
    assert isinstance(alloc, Alloc)
    path = cursor.path
    lifts = min(n_lifts, len(path) - 1)
    ir = p.ir
    for _ in range(lifts):
        cursor = find_alloc(ir, name)
        path = cursor.path
        alloc = cursor.stmt()
        if isinstance(alloc.type, TensorType):
            for dim in alloc.type.shape:
                loop_iter = _loop_iter_at(ir, path[:-1])
                if loop_iter is not None and stmt_uses_sym(
                    Assign(alloc.name, (dim,), dim, alloc.srcinfo), loop_iter
                ):
                    raise SchedulingError(
                        f"allocation {name!r} shape depends on loop "
                        f"{loop_iter.name!r}; expand_dim first"
                    )
        # remove from current block, insert before enclosing loop
        ir = replace_at(ir, path, [])
        parent_path = path[:-1]
        ir = _insert_before(ir, parent_path, alloc)
    return Procedure(ir)


def _loop_iter_at(ir, path):
    if not path:
        return None
    stmt = get_stmt(ir, path)
    return stmt.iter if isinstance(stmt, For) else None


def _insert_before(ir, path, new_stmt):
    target = get_stmt(ir, path)
    return replace_at(ir, path, [new_stmt, target])


# ---------------------------------------------------------------------------
# set_memory / set_precision
# ---------------------------------------------------------------------------


def set_memory(p: Procedure, name: str, mem: Memory) -> Procedure:
    """Change the storage class of allocation ``name`` (e.g. DRAM -> Neon)."""
    cursor = find_alloc(p.ir, name)
    alloc = cursor.stmt()
    assert isinstance(alloc, Alloc)
    return Procedure(replace_at(p.ir, cursor.path, [update(alloc, mem=mem)]))


def set_precision(p: Procedure, name: str, precision: str) -> Procedure:
    """Change the scalar type of an allocation or argument.

    ``set_precision(p, 'A_reg', 'f16')`` is the paper's recipe (Section
    III-D) for retargeting a schedule to half precision.  Both the
    declaration and every read of the buffer in the body are retyped.
    """
    base = parse_scalar_type(precision)
    ir = p.ir
    target_sym = None
    for i, arg in enumerate(ir.args):
        if arg.name.name == name and arg.type.is_numeric():
            typ = arg.type
            new_type = (
                typ.with_base(base) if isinstance(typ, TensorType) else base
            )
            args = list(ir.args)
            args[i] = update(arg, type=new_type)
            ir = update(ir, args=tuple(args))
            target_sym = arg.name
            break
    if target_sym is None:
        cursor = find_alloc(ir, name)
        alloc = cursor.stmt()
        assert isinstance(alloc, Alloc)
        typ = alloc.type
        new_type = typ.with_base(base) if isinstance(typ, TensorType) else base
        ir = replace_at(ir, cursor.path, [update(alloc, type=new_type)])
        target_sym = alloc.name

    def retype(e: Expr) -> Expr:
        if isinstance(e, Read) and e.name == target_sym and e.idx:
            return update(e, type=base)
        if isinstance(e, Read) and e.name == target_sym and e.type.is_tensor():
            return update(e, type=e.type.with_base(base))
        return e

    body = map_stmts(ir.body, expr_fn=lambda e: map_expr(e, retype))
    return Procedure(update(ir, body=body))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _type_of(ir, sym: Sym):
    for a in ir.args:
        if a.name == sym:
            return a.type
    hit = _find_alloc_by_sym(ir.body, sym)
    if hit is not None:
        return hit.type
    raise SchedulingError(f"unknown buffer {sym}")


def _mem_of(ir, sym: Sym):
    from ..memory import DRAM

    for a in ir.args:
        if a.name == sym:
            return a.mem or DRAM
    hit = _find_alloc_by_sym(ir.body, sym)
    if hit is not None:
        return hit.mem
    return DRAM


def _find_alloc_by_sym(block, sym: Sym):
    for s in block:
        if isinstance(s, Alloc) and s.name == sym:
            return s
        if isinstance(s, For):
            hit = _find_alloc_by_sym(s.body, sym)
            if hit is not None:
                return hit
    return None
