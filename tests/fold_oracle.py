"""Bottom-up oracle for constant folding.

Production folds each statement-level expression once, top-down, and
skips expressions that are already the output of a fold
(:func:`repro.core.scheduling.subst.fold_constants`).  This module keeps
the original fold verbatim — ``_fold_expr`` applied at *every* node,
bottom-up, through the original rebuild-everything ``map_expr`` /
``map_stmts`` and ``dataclasses.replace``, and the affine
``simplify_expr`` it canonicalizes with — as the reference the
production fold must reproduce node for node (``tests/test_fold_oracle.py``).
"""

from __future__ import annotations

from dataclasses import replace as update
from typing import Callable, Iterable, Tuple

from repro.core.affine import delinearize, linearize, try_constant
from repro.core.loopir import (
    Alloc,
    Assign,
    BinOp,
    Call,
    Const,
    Expr,
    For,
    Interval,
    Pass,
    Point,
    Proc,
    Read,
    Reduce,
    Stmt,
    StrideExpr,
    USub,
    WindowExpr,
)
from repro.core.prelude import NULL_SRC
from repro.core.typesys import TensorType


def simplify_expr(e: Expr) -> Expr:
    """Simplify an index expression to canonical affine form when possible.

    Non-affine expressions are rebuilt with affine subexpressions simplified.
    Non-index expressions (data arithmetic) are returned untouched except for
    recursion into their operands.
    """
    lin = linearize(e)
    if lin is not None:
        return delinearize(lin, getattr(e, "srcinfo", NULL_SRC))
    if isinstance(e, BinOp):
        return update(e, lhs=simplify_expr(e.lhs), rhs=simplify_expr(e.rhs))
    if isinstance(e, USub):
        return update(e, arg=simplify_expr(e.arg))
    if isinstance(e, Read):
        return update(e, idx=tuple(simplify_expr(i) for i in e.idx))
    return e


def map_expr(e: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``e`` bottom-up, applying ``fn`` to every subexpression."""
    if isinstance(e, (Const, StrideExpr)):
        return fn(e)
    if isinstance(e, Read):
        return fn(update(e, idx=tuple(map_expr(i, fn) for i in e.idx)))
    if isinstance(e, BinOp):
        return fn(update(e, lhs=map_expr(e.lhs, fn), rhs=map_expr(e.rhs, fn)))
    if isinstance(e, USub):
        return fn(update(e, arg=map_expr(e.arg, fn)))
    if isinstance(e, Interval):
        return fn(update(e, lo=map_expr(e.lo, fn), hi=map_expr(e.hi, fn)))
    if isinstance(e, Point):
        return fn(update(e, pt=map_expr(e.pt, fn)))
    if isinstance(e, WindowExpr):
        return fn(update(e, idx=tuple(map_expr(i, fn) for i in e.idx)))
    raise TypeError(f"unknown expression node: {type(e).__name__}")


def map_stmts(
    stmts: Iterable[Stmt],
    stmt_fn: Callable[[Stmt], Stmt] = None,
    expr_fn: Callable[[Expr], Expr] = None,
) -> Tuple[Stmt, ...]:
    """Rebuild a statement block bottom-up.

    ``expr_fn`` is applied to every expression (via :func:`map_expr`);
    ``stmt_fn`` is applied to every rebuilt statement.  Either may be None.
    """
    sf = stmt_fn or (lambda s: s)
    ef = expr_fn

    def do_expr(e: Expr) -> Expr:
        return map_expr(e, ef) if ef else e

    out = []
    for s in stmts:
        if isinstance(s, (Assign, Reduce)):
            s2 = update(
                s, idx=tuple(do_expr(i) for i in s.idx), rhs=do_expr(s.rhs)
            )
        elif isinstance(s, For):
            s2 = update(
                s,
                lo=do_expr(s.lo),
                hi=do_expr(s.hi),
                body=map_stmts(s.body, stmt_fn, expr_fn),
            )
        elif isinstance(s, Call):
            s2 = update(s, args=tuple(do_expr(a) for a in s.args))
        elif isinstance(s, Alloc):
            s2 = s
            typ = s.type
            if ef and getattr(typ, "is_tensor", lambda: False)():
                new_shape = tuple(do_expr(d) for d in typ.shape)
                if new_shape != typ.shape:
                    s2 = update(s, type=typ.with_shape(new_shape))
        elif isinstance(s, Pass):
            s2 = s
        else:
            raise TypeError(f"unknown statement node: {type(s).__name__}")
        out.append(sf(s2))
    return tuple(out)


def _fold_expr(e: Expr) -> Expr:
    """Affine-simplify index expressions; fold numeric identities."""
    simplified = simplify_expr(e)
    if isinstance(simplified, BinOp) and not simplified.type.is_indexable():
        lhs, rhs = _fold_expr(simplified.lhs), _fold_expr(simplified.rhs)
        # x * 1, 1 * x, x + 0, 0 + x on data arithmetic
        if simplified.op == "*":
            if isinstance(lhs, Const) and lhs.val == 1:
                return rhs
            if isinstance(rhs, Const) and rhs.val == 1:
                return lhs
        if simplified.op == "+":
            if isinstance(lhs, Const) and lhs.val == 0:
                return rhs
            if isinstance(rhs, Const) and rhs.val == 0:
                return lhs
        return update(simplified, lhs=lhs, rhs=rhs)
    return simplified


def fold_constants(ir: Proc) -> Proc:
    """Fold and canonicalize every expression; drop degenerate loops.

    A loop whose trip count folds to zero disappears; a trip count of one
    keeps the loop (explicit structure is what scheduling patterns address —
    collapsing is a separate, opt-in step).
    """

    def stmt_fn(s):
        if isinstance(s, For):
            lo = try_constant(s.lo)
            hi = try_constant(s.hi)
            if lo is not None and hi is not None and hi <= lo:
                return Pass(s.srcinfo)
        return s

    body = map_stmts(ir.body, stmt_fn=stmt_fn, expr_fn=_fold_expr)
    body = tuple(s for s in body if not isinstance(s, Pass)) or body
    args = []
    for a in ir.args:
        typ = a.type
        if isinstance(typ, TensorType):
            typ = typ.with_shape(tuple(_fold_expr(d) for d in typ.shape))
        args.append(update(a, type=typ))

    def fold_alloc(s):
        if isinstance(s, Alloc) and isinstance(s.type, TensorType):
            return update(
                s, type=s.type.with_shape(tuple(_fold_expr(d) for d in s.type.shape))
            )
        return s

    body = map_stmts(body, stmt_fn=fold_alloc)
    preds = tuple(_fold_expr(pr) for pr in ir.preds)
    return update(ir, args=tuple(args), preds=preds, body=body)
