"""Whole-block walker oracle for the free-symbol queries.

Production answers ``free_symbols`` / ``stmt_uses_sym`` from a
``(free, bound)`` pair memoized on each statement node
(:func:`repro.core.traversal.stmt_symbols`), so a query costs only the
statements built since the last one.  This module keeps the original
walker, which visits every statement of the block on every call, as the
reference the memoized queries must reproduce
(``tests/test_symbol_oracle.py``).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.core.loopir import (
    Alloc,
    Assign,
    Call,
    Expr,
    For,
    Pass,
    Read,
    Reduce,
    Stmt,
    StrideExpr,
    WindowExpr,
)
from repro.core.prelude import Sym
from repro.core.traversal import map_expr


def block_symbols(stmts: Iterable[Stmt]) -> Tuple[set, set]:
    """``(free, bound)``: symbols read or written in a block but not bound
    within it, and every allocation name and loop iterator it binds."""
    bound: set = set()
    free: set = set()

    def see(sym: Sym):
        if sym not in bound:
            free.add(sym)

    def expr_fn(e: Expr) -> Expr:
        if isinstance(e, (Read, WindowExpr, StrideExpr)):
            see(e.name)
        return e

    def walk(block):
        for s in block:
            if isinstance(s, Alloc):
                bound.add(s.name)
            elif isinstance(s, For):
                map_expr(s.lo, expr_fn)
                map_expr(s.hi, expr_fn)
                bound.add(s.iter)
                walk(s.body)
            elif isinstance(s, (Assign, Reduce)):
                see(s.name)
                for i in s.idx:
                    map_expr(i, expr_fn)
                map_expr(s.rhs, expr_fn)
            elif isinstance(s, Call):
                for a in s.args:
                    map_expr(a, expr_fn)
            elif isinstance(s, Pass):
                pass
            else:
                raise TypeError(f"unknown statement node: {type(s).__name__}")

    walk(stmts)
    return free, bound


def free_symbols(stmts: Iterable[Stmt]) -> set:
    """Symbols read or written in a block but not bound within it."""
    return block_symbols(stmts)[0]


def stmt_uses_sym(s: Stmt, sym: Sym) -> bool:
    """True when ``s`` (recursively) reads, writes, or indexes via ``sym``."""
    return sym in free_symbols((s,))
