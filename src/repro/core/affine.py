"""Affine-expression analysis: normalization, folding, comparison.

Index arithmetic in scheduled kernels is affine in loop iterators and size
parameters (``4 * it + itt``, ``jt * 4 + jtt`` ...).  We normalize such
expressions to a canonical linear form — integer coefficients over symbols
plus a constant — which gives the compiler:

* constant folding and pretty ``simplify`` output (the fold in
  :mod:`repro.core.scheduling.subst` canonicalizes through
  :func:`linearize` / :func:`delinearize`),
* decidable syntactic equality modulo arithmetic (``4*it + itt`` equals
  ``itt + it*4``), used everywhere from ``divide_loop`` bounds checks to the
  instruction unifier in ``replace``,
* difference computation (``a - b`` as a linear form) for offset/stride
  extraction when building windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .loopir import BinOp, Const, Expr, Read, USub
from .prelude import NULL_SRC, Sym
from .typesys import INDEX


@dataclass
class LinExpr:
    """A linear combination ``sum(coeff[s] * s) + offset`` over symbols."""

    terms: Dict[Sym, int] = field(default_factory=dict)
    offset: int = 0

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.terms), self.offset)

    def add_term(self, sym: Sym, coeff: int) -> None:
        new = self.terms.get(sym, 0) + coeff
        if new:
            self.terms[sym] = new
        else:
            self.terms.pop(sym, None)

    def plus(self, other: "LinExpr", sign: int = 1) -> "LinExpr":
        out = self.copy()
        for sym, c in other.terms.items():
            out.add_term(sym, sign * c)
        out.offset += sign * other.offset
        return out

    def scaled(self, k: int) -> "LinExpr":
        if k == 0:
            return LinExpr()
        return LinExpr({s: c * k for s, c in self.terms.items()}, self.offset * k)

    def is_constant(self) -> bool:
        return not self.terms

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.offset

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinExpr)
            and self.terms == other.terms
            and self.offset == other.offset
        )

    def __repr__(self) -> str:
        parts = [f"{c}*{s}" for s, c in self.terms.items()]
        parts.append(str(self.offset))
        return " + ".join(parts)


def linearize(e: Expr) -> Optional[LinExpr]:
    """Normalize ``e`` to a :class:`LinExpr`, or None if non-affine."""
    if isinstance(e, Const):
        if isinstance(e.val, bool) or not isinstance(e.val, int):
            return None
        return LinExpr({}, e.val)
    if isinstance(e, Read) and not e.idx and e.type.is_indexable():
        return LinExpr({e.name: 1}, 0)
    if isinstance(e, USub):
        inner = linearize(e.arg)
        return inner.scaled(-1) if inner is not None else None
    if isinstance(e, BinOp):
        lhs, rhs = linearize(e.lhs), linearize(e.rhs)
        if lhs is None or rhs is None:
            return None
        if e.op == "+":
            return lhs.plus(rhs)
        if e.op == "-":
            return lhs.plus(rhs, sign=-1)
        if e.op == "*":
            if lhs.is_constant():
                return rhs.scaled(lhs.constant_value())
            if rhs.is_constant():
                return lhs.scaled(rhs.constant_value())
            return None
        if e.op in ("/", "%") and rhs.is_constant() and lhs.is_constant():
            k = rhs.constant_value()
            if k == 0:
                return None
            if e.op == "/":
                return LinExpr({}, lhs.constant_value() // k)
            return LinExpr({}, lhs.constant_value() % k)
        return None
    return None


def delinearize(lin: LinExpr, srcinfo=NULL_SRC) -> Expr:
    """Rebuild a canonical expression from a linear form.

    Terms are emitted in increasing symbol-id order (deterministic output),
    each as ``coeff * sym`` with unit coefficients elided.
    """
    result: Optional[Expr] = None

    def accumulate(term: Expr):
        nonlocal result
        result = term if result is None else BinOp("+", result, term, INDEX, srcinfo)

    for sym in sorted(lin.terms, key=lambda s: s.id):
        coeff = lin.terms[sym]
        var: Expr = Read(sym, (), INDEX, srcinfo)
        if coeff == 1:
            accumulate(var)
        elif coeff == -1:
            accumulate(USub(var, INDEX, srcinfo))
        else:
            accumulate(BinOp("*", Const(coeff, INDEX, srcinfo), var, INDEX, srcinfo))
    if lin.offset or result is None:
        accumulate(Const(lin.offset, INDEX, srcinfo))
    return result


def exprs_equal(a: Expr, b: Expr) -> bool:
    """Equality modulo affine arithmetic; falls back to structural checks."""
    la, lb = linearize(a), linearize(b)
    if la is not None and lb is not None:
        return la == lb
    return _structurally_equal(a, b)


def _structurally_equal(a: Expr, b: Expr) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return a.val == b.val
    if isinstance(a, Read):
        return (
            a.name == b.name
            and len(a.idx) == len(b.idx)
            and all(exprs_equal(x, y) for x, y in zip(a.idx, b.idx))
        )
    if isinstance(a, BinOp):
        return a.op == b.op and exprs_equal(a.lhs, b.lhs) and exprs_equal(a.rhs, b.rhs)
    if isinstance(a, USub):
        return exprs_equal(a.arg, b.arg)
    return False


def try_constant(e: Expr) -> Optional[int]:
    """Evaluate ``e`` to an integer when it contains no symbols."""
    lin = linearize(e)
    if lin is not None and lin.is_constant():
        return lin.constant_value()
    return None


_COMPARE = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
}


def try_constant_bool(e: Expr) -> Optional[bool]:
    """Evaluate a predicate to a boolean when it is statically decidable."""
    if isinstance(e, Const) and isinstance(e.val, bool):
        return e.val
    if not isinstance(e, BinOp):
        return None
    if e.op in _COMPARE:
        lhs, rhs = try_constant(e.lhs), try_constant(e.rhs)
        if lhs is None or rhs is None:
            return None
        return _COMPARE[e.op](lhs, rhs)
    if e.op == "and":
        lhs, rhs = try_constant_bool(e.lhs), try_constant_bool(e.rhs)
        if lhs is False or rhs is False:
            return False
        if lhs is True and rhs is True:
            return True
        return None
    if e.op == "or":
        lhs, rhs = try_constant_bool(e.lhs), try_constant_bool(e.rhs)
        if lhs is True or rhs is True:
            return True
        if lhs is False and rhs is False:
            return False
        return None
    return None
