"""Renaming, constant folding, and ``simplify``."""

from __future__ import annotations

import weakref

from ..affine import delinearize, linearize, try_constant
from ..loopir import (
    BinOp,
    Const,
    Expr,
    For,
    Interval,
    Pass,
    Point,
    Proc,
    Read,
    USub,
    WindowExpr,
    update,
)
from ..prelude import SchedulingError
from ..proc import Procedure
from ..traversal import map_stmts, map_tuple
from ..typesys import TensorType


def rename(p: Procedure, new_name: str) -> Procedure:
    """Return a copy of ``p`` with a new procedure name."""
    if not new_name.isidentifier():
        raise SchedulingError(f"invalid procedure name {new_name!r}")
    return Procedure(update(p.ir, name=new_name))


#: Every live fold output, by ``id``.  A fold output is a fixpoint of the
#: fold, and copy-on-change rewrites keep it the same object, so meeting
#: it again costs one lookup.  The values are weak references: an entry
#: dies with its expression, so a recycled ``id`` never aliases.
_FOLDED = weakref.WeakValueDictionary()


def _fold_expr(e: Expr) -> Expr:
    """Fold one expression, top-down.

    An affine expression becomes its canonical linear form in one
    linearization at its root.  Otherwise the operands are folded, and
    ``x * 1``, ``1 * x``, ``x + 0`` and ``0 + x`` are dropped from data
    arithmetic.  The result is node for node what folding every
    subexpression bottom-up gives (the oracle in ``tests/fold_oracle.py``).
    """
    if _FOLDED.get(id(e)) is e:
        return e
    lin = linearize(e)
    if lin is not None:
        out = delinearize(lin, e.srcinfo)
    elif isinstance(e, (Read, WindowExpr)):
        out = update(e, idx=map_tuple(e.idx, _fold_expr))
    elif isinstance(e, Interval):
        out = update(e, lo=_fold_expr(e.lo), hi=_fold_expr(e.hi))
    elif isinstance(e, Point):
        out = update(e, pt=_fold_expr(e.pt))
    elif isinstance(e, (BinOp, USub)):
        if isinstance(e, BinOp):
            out = update(e, lhs=_fold_expr(e.lhs), rhs=_fold_expr(e.rhs))
        else:
            out = update(e, arg=_fold_expr(e.arg))
        # a dropped unit operand below can leave this node affine
        lin = linearize(out) if out is not e else None
        if lin is not None:
            out = delinearize(lin, e.srcinfo)
        elif isinstance(out, BinOp) and not out.type.is_indexable():
            out = _drop_unit(out)
    else:
        out = e
    _FOLDED[id(out)] = out
    return out


_UNITS = {"*": 1, "+": 0}


def _drop_unit(e: BinOp) -> Expr:
    """``x * 1``, ``1 * x``, ``x + 0`` or ``0 + x`` on data arithmetic -> x."""
    unit = _UNITS.get(e.op)
    if unit is None:
        return e
    if isinstance(e.lhs, Const) and e.lhs.val == unit:
        return e.rhs
    if isinstance(e.rhs, Const) and e.rhs.val == unit:
        return e.lhs
    return e


def _drop_empty_loop(s):
    if isinstance(s, For):
        lo = try_constant(s.lo)
        hi = try_constant(s.hi)
        if lo is not None and hi is not None and hi <= lo:
            return Pass(s.srcinfo)
    return s


def _fold_type(typ):
    if not isinstance(typ, TensorType):
        return typ
    shape = map_tuple(typ.shape, _fold_expr)
    return typ if shape is typ.shape else typ.with_shape(shape)


def fold_constants(ir: Proc) -> Proc:
    """Fold and canonicalize every expression; drop degenerate loops.

    A loop whose trip count folds to zero disappears; a trip count of one
    keeps the loop (explicit structure is what scheduling patterns address —
    collapsing is a separate, opt-in step).  Copy-on-change: folding an
    already folded proc returns it unchanged, the same object.
    """
    body = map_stmts(ir.body, stmt_fn=_drop_empty_loop, expr_fn=_fold_expr)
    if any(isinstance(s, Pass) for s in body):
        body = tuple(s for s in body if not isinstance(s, Pass)) or body
    args = map_tuple(ir.args, lambda a: update(a, type=_fold_type(a.type)))
    preds = map_tuple(ir.preds, _fold_expr)
    return update(ir, args=args, preds=preds, body=body)


def simplify(p: Procedure) -> Procedure:
    """Public entry: canonicalize all index arithmetic in ``p``."""
    return Procedure(fold_constants(p.ir))
