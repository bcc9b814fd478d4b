"""The production constant fold against the bottom-up oracle.

``repro.core.scheduling.subst.fold_constants`` folds each statement-level
expression once, top-down, and skips expressions that are already the
output of a fold.  ``tests/fold_oracle.py`` keeps the original fold,
which applies ``_fold_expr`` at every node bottom-up.  On procs from the
schedule fuzzer and on the steps of generated kernels, each rewritten
into a fresh, un-canonical copy, both must give equal IR (``==`` on the
dataclasses, so types count, and the same printed text).  A second fold
must hand back the very same objects.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import fold_oracle
from test_schedule_fuzz import TRANSFORMS, _specialized

from repro.core import Procedure
from repro.core.loopir import BinOp, Const, Read, USub, update
from repro.core.prelude import ReproError
from repro.core.scheduling import subst
from repro.core.traversal import map_expr, map_stmts
from repro.core.typesys import INDEX, TensorType
from repro.isa.avx512 import AVX512_F32_LIB
from repro.isa.targets import target
from repro.ukernel.generator import (
    generate_vla_microkernel,
    stored_microkernel,
)

#: how data reads are disguised: not at all, as ``(x * 1.0) + 0.0``, or
#: as ``-(-(1.0 * x))``
DATA_STYLES = (None, "unit", "negate")


def _unfold(ir, style):
    """A fresh copy of ``ir`` that folding must canonicalize again.

    Every index read ``x`` becomes ``1 * (x + 0)`` and every index
    constant ``c`` becomes ``(c + 1) - 1``; with a data ``style``, data
    reads are wrapped as well.  Every node is a new object, so nothing
    in the copy is a known fold output.
    """

    def perturb(e):
        if isinstance(e, Const) and e.type.is_indexable():
            return BinOp(
                "-", Const(e.val + 1, INDEX, e.srcinfo), Const(1, INDEX), INDEX
            )
        if not isinstance(e, Read):
            return e
        fresh = Read(e.name, e.idx, e.type, e.srcinfo)
        if e.type.is_indexable():
            inner = BinOp("+", fresh, Const(0, INDEX), INDEX)
            return BinOp("*", Const(1, INDEX), inner, INDEX)
        if style is None or e.type.is_tensor():
            return fresh
        one, zero = Const(1.0, e.type), Const(0.0, e.type)
        if style == "unit":
            return BinOp("+", BinOp("*", fresh, one, e.type), zero, e.type)
        return USub(USub(BinOp("*", one, fresh, e.type), e.type), e.type)

    def deep(e):
        return map_expr(e, perturb)

    def typ(t):
        if isinstance(t, TensorType):
            return t.with_shape(tuple(deep(d) for d in t.shape))
        return t

    return update(
        ir,
        args=tuple(update(a, type=typ(a.type)) for a in ir.args),
        preds=tuple(deep(pr) for pr in ir.preds),
        body=map_stmts(ir.body, expr_fn=deep),
    )


def _check_against_oracle(ir):
    new = subst.fold_constants(ir)
    old = fold_oracle.fold_constants(ir)
    assert new == old
    assert str(Procedure(new)) == str(Procedure(old))
    # the oracle is idempotent: the premise of skipping fold outputs
    assert fold_oracle.fold_constants(old) == old
    again = subst.fold_constants(new)
    assert again is new
    assert all(a is b for a, b in zip(again.body, new.body))


def _fuzzed(choices):
    p = _specialized()
    for idx in choices:
        try:
            p = TRANSFORMS[idx][1](p)
        except ReproError:
            continue
    return p


@given(
    st.lists(st.integers(0, len(TRANSFORMS) - 1), min_size=0, max_size=6),
    st.sampled_from(DATA_STYLES),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fold_matches_oracle_on_fuzzed_schedules(choices, style):
    _check_against_oracle(_unfold(_fuzzed(choices).ir, style))


def _kernel_steps():
    kernels = [
        stored_microkernel(8, 12),
        stored_microkernel(1, 8),
        stored_microkernel(16, 5, AVX512_F32_LIB),
    ]
    plan = generate_vla_microkernel(6, 4, target("rvv128").lib_factory)
    kernels += [k for _, k in plan.parts]
    return [
        pytest.param(step, id=f"{k.name}/{name}")
        for k in kernels
        for name, step in k.steps.items()
    ]


@pytest.mark.parametrize("style", DATA_STYLES)
@pytest.mark.parametrize("step", _kernel_steps())
def test_fold_matches_oracle_on_kernel_steps(step, style):
    _check_against_oracle(_unfold(step.ir, style))


def test_folded_kernels_refold_to_themselves():
    for step in stored_microkernel(8, 12).steps.values():
        assert subst.fold_constants(step.ir) is step.ir


def test_fold_outputs_are_told_apart_by_identity(monkeypatch):
    """An entry for another object under an expression's id is not a hit."""
    raw = BinOp("+", Const(2, INDEX), Const(3, INDEX), INDEX)
    other = Const(99, INDEX)
    monkeypatch.setitem(subst._FOLDED, id(raw), other)
    assert subst._fold_expr(raw) == Const(5, INDEX)


def _scalar_arithmetic():
    from repro.core import DRAM, proc

    @proc
    def scalars(x: f32[4] @ DRAM):
        r: f32 @ DRAM
        s: f32 @ DRAM
        r = x[0]
        s = x[1]
        x[2] = r * 1.0 + s * 1.0
        x[3] = -(s * 1.0) + 0.0 * r

    return scalars


@pytest.mark.parametrize("style", DATA_STYLES)
def test_fold_matches_oracle_where_dropping_a_unit_leaves_an_affine_node(
    style,
):
    """``r * 1.0 + s * 1.0`` loses its units and becomes affine in the
    scalar reads: the node above must be canonicalized again."""
    ir = _scalar_arithmetic().ir
    _check_against_oracle(ir)
    _check_against_oracle(_unfold(ir, style))
