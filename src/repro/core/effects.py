"""Effect and range analysis used by scheduling safety checks.

Two analyses live here:

* **Interval analysis** — bound an affine index expression given the ranges
  of the loop iterators in scope (:func:`expr_range`).  Used to validate
  ``expand_dim`` indexing, window construction in ``replace``, and lane-index
  preconditions such as ``l >= 0 and l < 4``.
* **Read/write effects** — the multiset of buffer accesses a block performs
  (:func:`stmt_effects`), with their index expressions.  ``autofission`` and
  ``reorder_loops`` consult these to reject transformations that would change
  observable behaviour.
* **Operand directions** — whether a block reads, writes or reduces into
  each buffer it names (:func:`access_kinds`), looking through calls into
  the callee's body (:func:`classify_formals`, memoized per callee).  The
  verifier reads an instruction's operand directions from it and C
  emission its ``const`` parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .affine import linearize
from .loopir import (
    Alloc,
    Assign,
    Call,
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
    BinOp,
)
from .prelude import SchedulingError, Sym

Bounds = Dict[Sym, Tuple[int, int]]  # sym -> inclusive (lo, hi)


def expr_range(e: Expr, bounds: Bounds) -> Optional[Tuple[int, int]]:
    """Inclusive (min, max) of an affine expression, or None if unbounded.

    Symbols absent from ``bounds`` make the result None (unknown), except
    when their coefficient is zero.
    """
    lin = linearize(e)
    if lin is None:
        return None
    lo = hi = lin.offset
    for sym, coeff in lin.terms.items():
        if sym not in bounds:
            return None
        smin, smax = bounds[sym]
        if coeff >= 0:
            lo += coeff * smin
            hi += coeff * smax
        else:
            lo += coeff * smax
            hi += coeff * smin
    return (lo, hi)


def loop_bounds_const(lo: Expr, hi: Expr, bounds: Bounds) -> Optional[Tuple[int, int]]:
    """Iterator range (inclusive) of ``seq(lo, hi)`` when it is static."""
    rlo = expr_range(lo, bounds)
    rhi = expr_range(hi, bounds)
    if rlo is None or rhi is None:
        return None
    if rlo[0] != rlo[1] or rhi[0] != rhi[1]:
        return None
    if rhi[0] <= rlo[0]:
        return None
    return (rlo[0], rhi[0] - 1)


# ---------------------------------------------------------------------------
# Read/write effects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Access:
    """One buffer access: the buffer, its index tuple, and the access kind."""

    buf: Sym
    idx: Tuple[Expr, ...]
    kind: str  # 'read' | 'write' | 'reduce'


def _expr_reads(e: Expr, out: List[Access]):
    if isinstance(e, Read):
        if e.idx or e.type.is_numeric():
            out.append(Access(e.name, e.idx, "read"))
        for i in e.idx:
            _expr_reads(i, out)
    elif isinstance(e, BinOp):
        _expr_reads(e.lhs, out)
        _expr_reads(e.rhs, out)
    elif isinstance(e, USub):
        _expr_reads(e.arg, out)
    elif isinstance(e, WindowExpr):
        # conservatively: reading the windowed region
        idx = tuple(w.pt if isinstance(w, Point) else w for w in e.idx)
        out.append(Access(e.name, idx, "read"))
    elif isinstance(e, (Interval, Point, StrideExpr)):
        pass


def stmt_effects(stmts) -> List[Access]:
    """Flat list of accesses performed by a block, in program order.

    ``Call`` arguments are treated conservatively: every window/tensor
    argument counts as both read and written.
    """
    out: List[Access] = []

    def walk(block):
        for s in block:
            if isinstance(s, (Assign, Reduce)):
                for i in s.idx:
                    _expr_reads(i, out)
                _expr_reads(s.rhs, out)
                kind = "reduce" if isinstance(s, Reduce) else "write"
                out.append(Access(s.name, s.idx, kind))
            elif isinstance(s, For):
                _expr_reads(s.lo, out)
                _expr_reads(s.hi, out)
                walk(s.body)
            elif isinstance(s, Call):
                for a in s.args:
                    _expr_reads(a, out)
                    if isinstance(a, WindowExpr):
                        idx = tuple(
                            w.pt if isinstance(w, Point) else w for w in a.idx
                        )
                        out.append(Access(a.name, idx, "write"))
                    elif isinstance(a, Read) and a.type.is_tensor():
                        out.append(Access(a.name, a.idx, "write"))
            elif isinstance(s, (Alloc, Pass)):
                pass
            else:
                raise SchedulingError(f"unknown statement {type(s).__name__}")

    walk(stmts)
    return out


def written_buffers(stmts) -> set:
    return {
        a.buf for a in stmt_effects(stmts) if a.kind in ("write", "reduce")
    }


#: ``id(proc) -> (proc, kinds)``; the entry pins its proc, so a freed
#: proc's ``id`` is never reused while the entry lives.
_classify_cache: Dict[int, Tuple[Proc, Dict[Sym, str]]] = {}


def classify_formals(proc: Proc) -> Dict[Sym, str]:
    """Access direction of each formal of ``proc``: 'read', 'write' or
    'reduce' (see :func:`access_kinds`), memoized per proc."""
    cached = _classify_cache.get(id(proc))
    if cached is not None and cached[0] is proc:
        return cached[1]
    kinds = access_kinds(proc.body)
    _classify_cache[id(proc)] = (proc, kinds)
    return kinds


def access_kinds(stmts: Sequence[Stmt]) -> Dict[Sym, str]:
    """Access direction of each symbol a block names.

    Derived from the block itself (which symbols appear as assignment /
    reduction targets, which only in right-hand sides and indices), and
    for a call from the callee's :func:`classify_formals`, so operand
    direction is never guessed from position.  A symbol both read and
    written is 'reduce' (read-modify-write).
    """
    kinds: Dict[Sym, str] = {}

    def note(sym: Sym, kind: str) -> None:
        prev = kinds.get(sym)
        if prev is None:
            kinds[sym] = kind
        elif prev != kind:
            # any write + any read -> reduce (read-modify-write)
            kinds[sym] = "reduce" if "read" in (prev, kind) else kind

    def reads(e: Expr) -> None:
        if isinstance(e, Read):
            note(e.name, "read")
            for i in e.idx:
                reads(i)
        elif isinstance(e, BinOp):
            reads(e.lhs)
            reads(e.rhs)
        elif isinstance(e, USub):
            reads(e.arg)

    def walk(block: Sequence[Stmt]) -> None:
        for s in block:
            if isinstance(s, (Assign, Reduce)):
                for i in s.idx:
                    reads(i)
                reads(s.rhs)
                note(s.name, "reduce" if isinstance(s, Reduce) else "write")
            elif isinstance(s, For):
                walk(s.body)
            elif isinstance(s, Call):
                callee = classify_formals(s.proc)
                for formal, actual in zip(s.proc.args, s.args):
                    kind = callee.get(formal.name)
                    if kind and isinstance(actual, (Read, WindowExpr)):
                        note(actual.name, kind)

    walk(stmts)
    return kinds


def read_buffers(stmts) -> set:
    return {a.buf for a in stmt_effects(stmts) if a.kind == "read"}


def _depends_on(idx: Tuple[Expr, ...], sym: Sym) -> Tuple[int, ...]:
    """Coefficient signature of ``sym`` across the index tuple (0 if absent).

    Window intervals contribute the coefficient of their start expression
    (their extents are constant in this IR, so start and end agree).
    """
    sig = []
    for e in idx:
        if isinstance(e, Interval):
            lo = linearize(e.lo)
            hi = linearize(e.hi)
            if lo is None or hi is None:
                sig.append(None)
                continue
            lo_c = lo.terms.get(sym, 0)
            hi_c = hi.terms.get(sym, 0)
            sig.append(lo_c if lo_c == hi_c else None)
            continue
        lin = linearize(e)
        sig.append(lin.terms.get(sym, 0) if lin is not None else None)
    return tuple(sig)


def fission_safe(before, after, loop_vars: List[Sym]) -> bool:
    """Check that splitting ``before; after`` out of loops over ``loop_vars``
    preserves semantics.

    The fissioned program runs *all* iterations of ``before`` and then all of
    ``after``; the original interleaves them.  This is safe when, for every
    buffer both parts touch with at least one write, the parts address it
    with index expressions that (a) agree in their dependence on each
    fissioned loop variable (same coefficients on the same dimensions) and
    (b) actually *depend* on the variable — making iteration ``i``'s cells
    private to iteration ``i``, so the interleaving cannot be observed.  A
    shared cell whose index ignores the loop variable (e.g. an ``x[0]``
    written before the gap and read after it) is order-visible and rejected.
    Buffers read by both parts but written by neither are ignored.
    """
    eff_before = stmt_effects(before)
    eff_after = stmt_effects(after)
    bufs = {a.buf for a in eff_before} & {a.buf for a in eff_after}
    for buf in bufs:
        acc_b = [a for a in eff_before if a.buf == buf]
        acc_a = [a for a in eff_after if a.buf == buf]
        if all(a.kind == "read" for a in acc_b + acc_a):
            continue
        for var in loop_vars:
            sigs = {_depends_on(a.idx, var) for a in acc_b + acc_a}
            if len(sigs) > 1:
                return False
            sig = next(iter(sigs), ())
            if None in sig:  # non-affine index involved
                return False
            if not any(coeff for coeff in sig):
                return False  # same cell touched by every iteration
    return True


def reorder_safe(outer_var: Sym, inner_var: Sym, body) -> bool:
    """Check that swapping two perfectly nested seq loops is sound.

    Sufficient condition: for every buffer written in the body, each access
    (read or write) depends on ``outer_var`` and ``inner_var`` with a single
    consistent coefficient signature — i.e. all accesses to the buffer use
    the same affine function of the two iterators, so the set of
    (cell, value-dependency) pairs is independent of iteration order.
    Reductions (+=) commute and are always allowed.
    """
    effects = stmt_effects(body)
    written = {a.buf for a in effects if a.kind in ("write",)}
    for buf in written:
        accesses = [a for a in effects if a.buf == buf]
        for var in (outer_var, inner_var):
            sigs = {_depends_on(a.idx, var) for a in accesses}
            if len(sigs) > 1:
                return False
            if None in next(iter(sigs), ()):
                return False
    return True
