"""Generic traversal, substitution, and alpha-renaming over LoopIR.

Three workhorses used by every scheduling primitive:

* :func:`map_expr` / :func:`map_stmts` — bottom-up, copy-on-change
  rewriting with a callback: an unchanged subtree comes back as the same
  object, so a rewrite shares everything it did not touch.
* :func:`subst_expr` — capture-avoiding substitution of symbols by
  expressions (both in expression position and, where an entire buffer is
  renamed, in statement l-values).
* :func:`alpha_rename` — deep copy of a statement block with fresh symbols
  for every binder (loop iterators and allocations), so a block can be
  duplicated (e.g. by ``unroll_loop`` or ``divide_loop`` tails) without
  symbol collisions.

The free-symbol queries (:func:`free_symbols`, :func:`stmt_uses_sym`,
:func:`stmt_mentions`) read a ``(free, bound)`` pair memoized on each
statement node (:func:`stmt_symbols`), so asking again about a block
costs only the statements built since the last question.
"""

from __future__ import annotations

from operator import is_
from typing import Callable, Dict, Iterable, Tuple

from .loopir import (
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
    Read,
    Reduce,
    Stmt,
    StrideExpr,
    USub,
    WindowExpr,
    update,
)
from .prelude import Sym

# ---------------------------------------------------------------------------
# Expression rewriting
# ---------------------------------------------------------------------------


def map_tuple(items: tuple, fn: Callable) -> tuple:
    """``fn`` over each item; the input tuple itself when no item changed."""
    out = tuple([fn(x) for x in items])
    return items if all(map(is_, out, items)) else out


def map_expr(e: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``e`` bottom-up, applying ``fn`` to every subexpression.

    Copy-on-change: a node none of whose children changed reaches ``fn``
    as itself, so a callback that changes nothing hands back ``e``.
    """
    if isinstance(e, (Const, StrideExpr)):
        return fn(e)
    if isinstance(e, (Read, WindowExpr)):
        return fn(update(e, idx=map_tuple(e.idx, lambda i: map_expr(i, fn))))
    if isinstance(e, BinOp):
        return fn(update(e, lhs=map_expr(e.lhs, fn), rhs=map_expr(e.rhs, fn)))
    if isinstance(e, USub):
        return fn(update(e, arg=map_expr(e.arg, fn)))
    if isinstance(e, Interval):
        return fn(update(e, lo=map_expr(e.lo, fn), hi=map_expr(e.hi, fn)))
    if isinstance(e, Point):
        return fn(update(e, pt=map_expr(e.pt, fn)))
    raise TypeError(f"unknown expression node: {type(e).__name__}")


def map_stmts(
    stmts: Iterable[Stmt],
    stmt_fn: Callable[[Stmt], Stmt] = None,
    expr_fn: Callable[[Expr], Expr] = None,
) -> Tuple[Stmt, ...]:
    """Rebuild a statement block bottom-up, copy-on-change.

    ``expr_fn`` is applied once to each statement-level expression: loop
    bounds, l-value indices, right-hand sides, call arguments and tensor
    allocation dims.  To reach every subexpression, pass a callback that
    runs :func:`map_expr`.  ``stmt_fn`` is applied to every rebuilt
    statement.  Either may be None.  A tuple block comes back as itself
    when nothing in it changed.
    """
    ef = expr_fn or _same
    out = []
    for s in stmts:
        if isinstance(s, (Assign, Reduce)):
            s2 = update(s, idx=map_tuple(s.idx, ef), rhs=ef(s.rhs))
        elif isinstance(s, For):
            s2 = update(
                s,
                lo=ef(s.lo),
                hi=ef(s.hi),
                body=map_stmts(s.body, stmt_fn, expr_fn),
            )
        elif isinstance(s, Call):
            s2 = update(s, args=map_tuple(s.args, ef))
        elif isinstance(s, Alloc):
            s2 = s
            typ = s.type
            if expr_fn and typ.is_tensor():
                shape = map_tuple(typ.shape, ef)
                if shape is not typ.shape:
                    s2 = update(s, type=typ.with_shape(shape))
        elif isinstance(s, Pass):
            s2 = s
        else:
            raise TypeError(f"unknown statement node: {type(s).__name__}")
        out.append(stmt_fn(s2) if stmt_fn else s2)
    if isinstance(stmts, tuple) and all(map(is_, out, stmts)):
        return stmts
    return tuple(out)


def _same(e: Expr) -> Expr:
    return e


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def subst_expr(e: Expr, env: Dict[Sym, Expr]) -> Expr:
    """Substitute symbols by expressions inside ``e``.

    A ``Read(name, ())`` whose name is mapped is replaced wholesale.  A
    mapped name appearing with indices must map to another plain symbol
    reference (buffer renaming); anything else is a misuse.
    """

    def go(sub: Expr) -> Expr:
        if isinstance(sub, Read) and sub.name in env:
            repl = env[sub.name]
            if not sub.idx:
                return repl
            if isinstance(repl, Read) and not repl.idx:
                return update(sub, name=repl.name)
            raise ValueError(
                f"cannot substitute indexed read of {sub.name} by {repl}"
            )
        if isinstance(sub, (WindowExpr, StrideExpr)) and sub.name in env:
            repl = env[sub.name]
            if isinstance(repl, Read) and not repl.idx:
                return update(sub, name=repl.name)
            raise ValueError(f"cannot substitute {type(sub).__name__} target")
        return sub

    return map_expr(e, go)


def subst_stmts(stmts: Iterable[Stmt], env: Dict[Sym, Expr]) -> Tuple[Stmt, ...]:
    """Substitute symbols in a block, including statement l-value renames.

    Each expression is substituted once: a replacement is not searched
    again for mapped symbols.
    """

    def stmt_fn(s: Stmt) -> Stmt:
        if isinstance(s, (Assign, Reduce)) and s.name in env:
            repl = env[s.name]
            if isinstance(repl, Read) and not repl.idx:
                return update(s, name=repl.name)
            raise ValueError(f"cannot substitute l-value {s.name} by {repl}")
        return s

    return map_stmts(stmts, stmt_fn=stmt_fn, expr_fn=lambda e: subst_expr(e, env))


# ---------------------------------------------------------------------------
# Alpha renaming
# ---------------------------------------------------------------------------


def alpha_rename(
    stmts: Iterable[Stmt], rename: Dict[Sym, Sym] = None
) -> Tuple[Stmt, ...]:
    """Deep-copy a block, refreshing every binder it introduces.

    Loop iterators and allocation names defined *inside* the block get fresh
    symbols; free symbols are left untouched, except those ``rename`` maps
    to a new symbol (e.g. the iterator of a loop the block is re-wrapped in).
    """
    mapping: Dict[Sym, Sym] = dict(rename or {})

    def rename_expr(e: Expr) -> Expr:
        if isinstance(e, (Read, WindowExpr, StrideExpr)) and e.name in mapping:
            return update(e, name=mapping[e.name])
        return e

    def renamed(e: Expr) -> Expr:
        return map_expr(e, rename_expr)

    def go(block: Iterable[Stmt]) -> Tuple[Stmt, ...]:
        out = []
        for s in block:
            if isinstance(s, Alloc):
                fresh = s.name.copy()
                mapping[s.name] = fresh
                out.append(update(s, name=fresh))
            elif isinstance(s, For):
                fresh = s.iter.copy()
                mapping[s.iter] = fresh
                out.append(
                    update(
                        s,
                        iter=fresh,
                        lo=renamed(s.lo),
                        hi=renamed(s.hi),
                        body=go(s.body),
                    )
                )
            elif isinstance(s, (Assign, Reduce)):
                name = mapping.get(s.name, s.name)
                out.append(
                    update(
                        s,
                        name=name,
                        idx=map_tuple(s.idx, renamed),
                        rhs=renamed(s.rhs),
                    )
                )
            elif isinstance(s, Call):
                out.append(update(s, args=map_tuple(s.args, renamed)))
            elif isinstance(s, Pass):
                out.append(s)
            else:
                raise TypeError(f"unknown statement node: {type(s).__name__}")
        return tuple(out)

    return go(stmts)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def collect_reads(e: Expr) -> list:
    """All (Sym, idx-tuple) scalar reads inside an expression."""
    found = []

    def go(sub: Expr) -> Expr:
        if isinstance(sub, Read):
            found.append((sub.name, sub.idx))
        return sub

    map_expr(e, go)
    return found


def expr_symbols(e: Expr, found: set = None) -> set:
    """Names of every read, window and stride inside an expression,
    added to ``found`` (a new set by default), which is returned."""
    if found is None:
        found = set()
    if isinstance(e, (Read, WindowExpr)):
        found.add(e.name)
        for i in e.idx:
            expr_symbols(i, found)
    elif isinstance(e, BinOp):
        expr_symbols(e.lhs, found)
        expr_symbols(e.rhs, found)
    elif isinstance(e, USub):
        expr_symbols(e.arg, found)
    elif isinstance(e, StrideExpr):
        found.add(e.name)
    elif isinstance(e, Interval):
        expr_symbols(e.lo, found)
        expr_symbols(e.hi, found)
    elif isinstance(e, Point):
        expr_symbols(e.pt, found)
    elif not isinstance(e, Const):
        raise TypeError(f"unknown expression node: {type(e).__name__}")
    return found


_NO_SYMS: frozenset = frozenset()


def stmt_symbols(s: Stmt) -> Tuple[frozenset, frozenset]:
    """``(free, bound)`` of one statement, memoized on the node.

    ``free`` is ``free_symbols((s,))``; ``bound`` holds every allocation
    name and loop iterator ``s`` introduces, at any depth.  Statements are
    immutable, so the memo is stored on the node (as ``_symbols``) and
    dies with it; a rebuilt parent computes its own from its children's
    memos, so a query costs only the statements built since the last one.
    """
    memo = s.__dict__.get("_symbols")
    if memo is not None:
        return memo
    if isinstance(s, (Assign, Reduce)):
        free = expr_symbols(s.rhs, {s.name})
        for i in s.idx:
            expr_symbols(i, free)
        memo = (frozenset(free), _NO_SYMS)
    elif isinstance(s, For):
        body_free, body_bound = _block_symbols(s.body)
        body_free.discard(s.iter)
        free = expr_symbols(s.hi, expr_symbols(s.lo, body_free))
        body_bound.add(s.iter)
        memo = (frozenset(free), frozenset(body_bound))
    elif isinstance(s, Call):
        free = set()
        for a in s.args:
            expr_symbols(a, free)
        memo = (frozenset(free), _NO_SYMS)
    elif isinstance(s, Alloc):
        memo = (_NO_SYMS, frozenset((s.name,)))
    elif isinstance(s, Pass):
        memo = (_NO_SYMS, _NO_SYMS)
    else:
        raise TypeError(f"unknown statement node: {type(s).__name__}")
    object.__setattr__(s, "_symbols", memo)
    return memo


def _block_symbols(stmts: Iterable[Stmt]) -> Tuple[set, set]:
    """``(free, bound)`` of a block.  A symbol is free when a statement
    uses it before any binding of it: in an earlier sibling, or earlier
    in that statement."""
    free: set = set()
    bound: set = set()
    for s in stmts:
        s_free, s_bound = stmt_symbols(s)
        free |= s_free - bound
        bound |= s_bound
    return free, bound


def free_symbols(stmts: Iterable[Stmt]) -> set:
    """Symbols read or written in a block but not bound within it."""
    return _block_symbols(stmts)[0]


def stmt_uses_sym(s: Stmt, sym: Sym) -> bool:
    """True when ``s`` (recursively) reads, writes, or indexes via ``sym``."""
    return sym in stmt_symbols(s)[0]


def stmt_mentions(s: Stmt, sym: Sym) -> bool:
    """True when ``sym`` occurs anywhere in ``s``, bound there or free."""
    free, bound = stmt_symbols(s)
    return sym in free or sym in bound
