"""Tests for affine normalization: linearize, delinearize, equality."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.affine import (
    LinExpr,
    delinearize,
    exprs_equal,
    linearize,
    try_constant,
)
from repro.core.loopir import BinOp, Const, Read, USub
from repro.core.prelude import Sym
from repro.core.scheduling.subst import _fold_expr
from repro.core.typesys import INDEX


def var(sym):
    return Read(sym, (), INDEX)


def const(v):
    return Const(v, INDEX)


def add(a, b):
    return BinOp("+", a, b, INDEX)


def mul(a, b):
    return BinOp("*", a, b, INDEX)


class TestLinearize:
    def test_constant(self):
        lin = linearize(const(7))
        assert lin.is_constant() and lin.constant_value() == 7

    def test_variable(self):
        x = Sym("x")
        lin = linearize(var(x))
        assert lin.terms == {x: 1} and lin.offset == 0

    def test_affine_combination(self):
        x, y = Sym("x"), Sym("y")
        e = add(mul(const(4), var(x)), add(var(y), const(3)))
        lin = linearize(e)
        assert lin.terms == {x: 4, y: 1}
        assert lin.offset == 3

    def test_cancellation(self):
        x = Sym("x")
        e = BinOp("-", var(x), var(x), INDEX)
        lin = linearize(e)
        assert lin.is_constant() and lin.constant_value() == 0

    def test_negation(self):
        x = Sym("x")
        lin = linearize(USub(var(x), INDEX))
        assert lin.terms == {x: -1}

    def test_product_of_variables_is_not_affine(self):
        x, y = Sym("x"), Sym("y")
        assert linearize(mul(var(x), var(y))) is None

    def test_constant_division(self):
        e = BinOp("/", const(7), const(2), INDEX)
        assert linearize(e).constant_value() == 3

    def test_constant_modulo(self):
        e = BinOp("%", const(7), const(2), INDEX)
        assert linearize(e).constant_value() == 1

    def test_division_by_zero_rejected(self):
        e = BinOp("/", const(7), const(0), INDEX)
        assert linearize(e) is None

    def test_float_const_not_affine(self):
        from repro.core.typesys import R

        assert linearize(Const(1.5, R)) is None


class TestDelinearize:
    def test_roundtrip_simple(self):
        x = Sym("x")
        e = add(mul(const(4), var(x)), const(2))
        again = linearize(delinearize(linearize(e)))
        assert again == linearize(e)

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        st.integers(-10, 10),
    )
    def test_roundtrip_random(self, coeffs, offset):
        syms = [Sym(f"v{i}") for i in range(len(coeffs))]
        lin = LinExpr(
            {s: c for s, c in zip(syms, coeffs) if c}, offset
        )
        assert linearize(delinearize(lin)) == lin

    def test_deterministic_term_order(self):
        x, y = Sym("a"), Sym("b")
        lin = LinExpr({x: 2, y: 3}, 1)
        from repro.core.pprint import expr_to_str

        assert expr_to_str(delinearize(lin)) == expr_to_str(delinearize(lin))


class TestEquality:
    def test_commuted_forms_equal(self):
        it, itt = Sym("it"), Sym("itt")
        a = add(mul(const(4), var(it)), var(itt))
        b = add(var(itt), mul(var(it), const(4)))
        assert exprs_equal(a, b)

    def test_different_coefficients_unequal(self):
        it = Sym("it")
        assert not exprs_equal(mul(const(4), var(it)), mul(const(2), var(it)))

    def test_try_constant(self):
        assert try_constant(add(const(2), const(3))) == 5
        assert try_constant(var(Sym("x"))) is None


class TestSimplify:
    def test_folds_constants(self):
        e = add(const(2), mul(const(3), const(4)))
        assert try_constant(_fold_expr(e)) == 14

    def test_collects_terms(self):
        x = Sym("x")
        e = add(var(x), add(var(x), var(x)))
        lin = linearize(_fold_expr(e))
        assert lin.terms == {x: 3}

    def test_preserves_non_affine(self):
        x, y = Sym("x"), Sym("y")
        e = mul(var(x), var(y))
        out = _fold_expr(e)
        assert isinstance(out, BinOp) and out.op == "*"

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-5, 5))
    def test_linear_identity_random(self, a, b, c):
        x = Sym("x")
        e = add(mul(const(a), var(x)), add(const(b), mul(const(c), var(x))))
        lin = linearize(_fold_expr(e))
        expected_coeff = a + c
        assert lin.terms.get(x, 0) == expected_coeff
        assert lin.offset == b
