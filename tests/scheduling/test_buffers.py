"""Tests for buffer scheduling: staging, expansion, lifting, retyping."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent.parent))

from helpers import assert_equivalent

from repro.core import DRAM, Neon, SchedulingError, proc
from repro.core.loopir import Alloc, Read
from repro.core.scheduling import (
    bind_expr,
    expand_dim,
    lift_alloc,
    set_memory,
    set_precision,
    simplify,
    stage_mem,
)
from repro.core.typesys import F32, TensorType
from repro.ukernel.generator import make_reference_kernel


@proc
def axpy_tile(K: size, A: f32[K, 4] @ DRAM, B: f32[K, 4] @ DRAM, C: f32[4, 4] @ DRAM):
    for k in seq(0, K):
        for j in seq(0, 4):
            for i in seq(0, 4):
                C[j, i] += A[k, i] * B[k, j]


class TestStageMem:
    def test_inserts_load_compute_store(self):
        p = stage_mem(axpy_tile, "C[_] += _", "C[j, i]", "C_reg")
        text = str(p)
        assert "C_reg = C[j, i]" in text
        assert "C_reg += " in text
        assert "C[j, i] = C_reg" in text

    def test_semantics_preserved(self):
        p = stage_mem(axpy_tile, "C[_] += _", "C[j, i]", "C_reg")
        assert_equivalent(axpy_tile, p, sizes={"K": 5})

    def test_affine_equal_access_matches(self):
        @proc
        def shifted(C: f32[8] @ DRAM):
            for i in seq(0, 4):
                C[2 * i + 1] += 1.0

        p = stage_mem(shifted, "C[_] += _", "C[1 + 2 * i]", "r")
        assert_equivalent(shifted, p, sizes={})

    def test_wrong_element_rejected(self):
        with pytest.raises(SchedulingError, match="does not occur"):
            stage_mem(axpy_tile, "C[_] += _", "C[i, j]", "C_reg")

    def test_partial_index_rejected(self):
        with pytest.raises(SchedulingError, match="fully index"):
            stage_mem(axpy_tile, "C[_] += _", "C[j]", "C_reg")

    def test_fold_keeps_staged_data_reads_typed(self):
        """An idx-less read of a data scalar is not affine: folding must
        not rebuild ``C[j, i] = C_reg`` with an ``index`` read."""
        ref = make_reference_kernel().partial_eval(8, 12)
        staged = stage_mem(ref, "C[_] += _", "C[j, i]", "C_reg")
        for p in (staged, simplify(staged)):
            store = p.find("C[_] = _").stmt()
            assert isinstance(store.rhs, Read)
            assert store.rhs.name.name == "C_reg"
            assert store.rhs.type is F32


class TestBindExpr:
    def test_binds_first_read(self):
        p = bind_expr(axpy_tile, "A[_]", "A_reg")
        text = str(p)
        assert "A_reg = A[k, i]" in text
        assert "A_reg * B[k, j]" in text or "A_reg *" in text

    def test_semantics_preserved(self):
        p = bind_expr(axpy_tile, "B[_]", "B_reg")
        assert_equivalent(axpy_tile, p, sizes={"K": 3})

    def test_missing_buffer_rejected(self):
        with pytest.raises(SchedulingError, match="no read"):
            bind_expr(axpy_tile, "Z[_]", "Z_reg")

    def test_bad_pattern_rejected(self):
        with pytest.raises(SchedulingError, match="Buf"):
            bind_expr(axpy_tile, "A[", "r")


class TestExpandDim:
    def _staged(self):
        return stage_mem(axpy_tile, "C[_] += _", "C[j, i]", "C_reg")

    def test_prepends_dimension(self):
        p = expand_dim(self._staged(), "C_reg", 4, "i")
        alloc = p.find("C_reg: _").stmt()
        assert isinstance(alloc.type, TensorType)
        assert str(alloc.type.shape[0]) != ""

    def test_stacked_expansion_semantics(self):
        p = self._staged()
        p = expand_dim(p, "C_reg", 4, "i")
        p = expand_dim(p, "C_reg", 4, "j")
        assert_equivalent(axpy_tile, p, sizes={"K": 4})

    def test_affine_index_expression(self):
        @proc
        def split(C: f32[8] @ DRAM):
            for it in seq(0, 2):
                for itt in seq(0, 4):
                    t: f32 @ DRAM
                    t = C[4 * it + itt]
                    C[4 * it + itt] = t * 2.0

        p = expand_dim(split, "t", 8, "4 * it + itt")
        assert_equivalent(split, p, sizes={})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(SchedulingError, match="exceeds"):
            expand_dim(self._staged(), "C_reg", 2, "j")

    def test_unknown_symbol_rejected(self):
        with pytest.raises(SchedulingError, match="unknown name"):
            expand_dim(self._staged(), "C_reg", 4, "zz")


class TestLiftAlloc:
    def _expanded(self):
        p = stage_mem(axpy_tile, "C[_] += _", "C[j, i]", "C_reg")
        p = expand_dim(p, "C_reg", 4, "i")
        p = expand_dim(p, "C_reg", 4, "j")
        return p

    def test_lift_moves_to_top(self):
        p = lift_alloc(self._expanded(), "C_reg", n_lifts=3)
        assert isinstance(p.ir.body[0], Alloc)
        assert p.ir.body[0].name.name == "C_reg"

    def test_lift_semantics(self):
        p = lift_alloc(self._expanded(), "C_reg", n_lifts=3)
        assert_equivalent(axpy_tile, p, sizes={"K": 4})

    def test_overlift_stops_at_top(self):
        p = lift_alloc(self._expanded(), "C_reg", n_lifts=99)
        assert isinstance(p.ir.body[0], Alloc)

    def test_lift_shape_depending_on_loop_rejected(self):
        @proc
        def varsize(N: size, x: f32[N] @ DRAM):
            for i in seq(0, N):
                for j in seq(0, 4):
                    t: f32 @ DRAM
                    t = x[i]
                    x[i] = t

        p = expand_dim(varsize, "t", 4, "j")
        # now expand with the loop-dependent extent by hand is impossible via
        # API; instead lift the alloc past its indexing loop and confirm the
        # well-formed case still works
        p = lift_alloc(p, "t", n_lifts=2)
        assert_equivalent(varsize, p, sizes={"N": 3})


class TestSetMemoryAndPrecision:
    def test_set_memory(self):
        p = stage_mem(axpy_tile, "C[_] += _", "C[j, i]", "C_reg")
        p = set_memory(p, "C_reg", Neon)
        assert p.find("C_reg: _").stmt().mem is Neon

    def test_set_precision_alloc(self):
        p = stage_mem(axpy_tile, "C[_] += _", "C[j, i]", "C_reg")
        p = set_precision(p, "C_reg", "f16")
        text = str(p)
        assert "C_reg: f16" in text

    def test_set_precision_argument_retypes_reads(self):
        p = set_precision(axpy_tile, "A", "f16")
        arg = p.ir.arg_named("A")
        assert arg.type.base.name == "f16"
        a = np.random.default_rng(0).random((3, 4)).astype(np.float16)
        b = np.random.default_rng(1).random((3, 4)).astype(np.float32)
        c = np.zeros((4, 4), dtype=np.float32)
        p.interpret(3, a, b, c)  # mixed precision executes

    def test_unknown_precision_rejected(self):
        with pytest.raises(Exception, match="unknown scalar type"):
            set_precision(axpy_tile, "A", "f128")
