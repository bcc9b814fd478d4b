"""Tests for the type system, memories, effects, and traversal utilities."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import DRAM, Neon, Neon8f, proc
from repro.core.effects import (
    access_kinds,
    classify_formals,
    expr_range,
    fission_safe,
    loop_bounds_const,
    read_buffers,
    reorder_safe,
    stmt_effects,
    written_buffers,
)
from repro.core.loopir import BinOp, Const, Read
from repro.core.memory import AVX512, memory_by_name, register_memory, Memory
from repro.core.prelude import Sym
from repro.core.traversal import alpha_rename, free_symbols, subst_stmts
from repro.core.typesys import (
    F16,
    F32,
    INDEX,
    R,
    TensorType,
    parse_scalar_type,
    types_compatible,
)
from repro.isa.targets import target


class TestTypes:
    def test_scalar_lookup(self):
        assert parse_scalar_type("f32") is F32
        with pytest.raises(Exception):
            parse_scalar_type("f8")

    def test_generic_unifies_with_floats(self):
        assert types_compatible(R, F32)
        assert types_compatible(F16, R)
        assert not types_compatible(F16, F32)

    def test_integer_not_compatible_with_generic(self):
        from repro.core.typesys import I32

        assert not types_compatible(I32, R)

    def test_tensor_type_helpers(self):
        t = TensorType(F32, (Const(4, INDEX),))
        assert t.rank() == 1
        assert t.basetype() is F32
        assert t.with_base(F16).base is F16
        assert "f32[4]" in str(t)

    def test_ctype_mapping(self):
        assert F32.ctype() == "float"
        assert F16.ctype() == "_Float16"


class TestMemories:
    def test_lookup_by_name(self):
        assert memory_by_name("Neon") is Neon
        with pytest.raises(KeyError):
            memory_by_name("TPU")

    def test_lane_counts(self):
        assert Neon.lanes_for(32) == 4
        assert Neon8f.lanes_for(16) == 8
        assert AVX512.lanes_for(32) == 16

    def test_vector_ctypes(self):
        assert Neon.vector_ctype("f32") == "float32x4_t"
        assert AVX512.vector_ctype("f32") == "__m512"
        with pytest.raises(KeyError):
            Neon.vector_ctype("f64")

    def test_register_custom_memory(self):
        sve = register_memory(
            Memory("SVE_TEST", is_register_file=True, vector_lanes=8,
                   reg_bits=256, ctype_vector=(("f32", "svfloat32_t"),))
        )
        assert memory_by_name("SVE_TEST") is sve

    def test_dram_not_register_file(self):
        assert not DRAM.is_register_file
        with pytest.raises(ValueError):
            DRAM.lanes_for(32)


@proc
def sample_effects(N: size, x: f32[N] @ DRAM, y: f32[N] @ DRAM):
    for i in seq(0, N):
        y[i] += x[i] * 2.0


class TestEffects:
    def test_read_write_sets(self):
        body = sample_effects.ir.body
        x = sample_effects.ir.arg_named("x").name
        y = sample_effects.ir.arg_named("y").name
        assert read_buffers(body) == {x}
        assert written_buffers(body) == {y}

    def test_reduce_counted_as_reduce(self):
        effects = stmt_effects(sample_effects.ir.body)
        kinds = {e.kind for e in effects}
        assert "reduce" in kinds

    def test_expr_range(self):
        i = Sym("i")
        e = BinOp("+", BinOp("*", Const(4, INDEX), Read(i, (), INDEX), INDEX),
                  Const(3, INDEX), INDEX)
        assert expr_range(e, {i: (0, 3)}) == (3, 15)

    def test_expr_range_unknown_symbol(self):
        i = Sym("i")
        assert expr_range(Read(i, (), INDEX), {}) is None

    def test_negative_coefficient_range(self):
        i = Sym("i")
        from repro.core.loopir import USub

        e = USub(Read(i, (), INDEX), INDEX)
        assert expr_range(e, {i: (0, 3)}) == (-3, 0)

    def test_loop_bounds_const(self):
        assert loop_bounds_const(Const(0, INDEX), Const(4, INDEX), {}) == (0, 3)
        assert loop_bounds_const(Const(0, INDEX), Const(0, INDEX), {}) is None

    @given(st.integers(0, 10), st.integers(-5, 5), st.integers(1, 4))
    def test_expr_range_soundness(self, lo_bound, offset, coeff):
        """The computed interval must contain every concrete evaluation."""
        i = Sym("i")
        e = BinOp(
            "+",
            BinOp("*", Const(coeff, INDEX), Read(i, (), INDEX), INDEX),
            Const(offset, INDEX),
            INDEX,
        )
        hi_bound = lo_bound + 3
        rng = expr_range(e, {i: (lo_bound, hi_bound)})
        for concrete in range(lo_bound, hi_bound + 1):
            value = coeff * concrete + offset
            assert rng[0] <= value <= rng[1]


def _kinds_by_name(kinds):
    return {sym.name: kind for sym, kind in kinds.items()}


class TestAccessKinds:
    def test_reduce_target_and_rhs_read(self):
        kinds = _kinds_by_name(access_kinds(sample_effects.ir.body))
        assert kinds["y"] == "reduce"
        assert kinds["x"] == "read"

    def test_assign_target_is_write(self):
        @proc
        def copy(N: size, x: f32[N] @ DRAM, y: f32[N] @ DRAM):
            for i in seq(0, N):
                y[i] = x[i]

        kinds = _kinds_by_name(access_kinds(copy.ir.body))
        assert kinds["y"] == "write"
        assert kinds["x"] == "read"

    def test_written_then_read_is_reduce(self):
        @proc
        def staged(
            N: size, x: f32[N] @ DRAM, t: f32[N] @ DRAM, y: f32[N] @ DRAM
        ):
            for i in seq(0, N):
                t[i] = x[i]
                y[i] = t[i]

        kinds = _kinds_by_name(access_kinds(staged.ir.body))
        assert kinds == {"x": "read", "t": "reduce", "y": "write", "i": "read"}

    def test_index_and_negated_operands_are_reads(self):
        @proc
        def negate(N: size, x: f32[N] @ DRAM, y: f32[N] @ DRAM):
            for i in seq(0, N):
                y[i] = -x[i]

        kinds = _kinds_by_name(access_kinds(negate.ir.body))
        assert kinds["x"] == "read"
        assert kinds["i"] == "read"
        assert kinds["y"] == "write"

    def test_agrees_with_written_and_read_sets_without_calls(self):
        body = sample_effects.ir.body
        kinds = access_kinds(body)
        written = {s for s, k in kinds.items() if k in ("write", "reduce")}
        assert written == written_buffers(body)
        assert read_buffers(body) <= set(kinds)

    def test_instruction_formals_by_direction(self):
        lib = target("neon").lib
        load = _kinds_by_name(classify_formals(lib["load"].ir))
        fma = _kinds_by_name(classify_formals(lib["fmla_lane"].ir))
        assert (load["dst"], load["src"]) == ("write", "read")
        assert fma["dst"] == "reduce"
        assert fma["lhs"] == fma["rhs"] == "read"

    def test_classify_formals_is_memoized_per_proc(self):
        fma = target("neon").lib["fmla_lane"].ir
        assert classify_formals(fma) is classify_formals(fma)

    def test_call_actuals_take_the_callee_directions(self, uk8x12):
        """In a generated kernel every operand is reached only through
        instruction calls: the packed panels are read, C is loaded and
        stored back (read-modify-write)."""
        kinds = _kinds_by_name(access_kinds(uk8x12.proc.ir.body))
        assert kinds["Ac"] == kinds["Bc"] == "read"
        assert kinds["C"] == "reduce"
        assert kinds["C_reg"] == "reduce"


class TestTraversal:
    def test_free_symbols(self):
        body = sample_effects.ir.body
        free = free_symbols(body)
        names = {s.name for s in free}
        assert {"x", "y", "N"} <= names
        assert "i" not in names

    def test_alpha_rename_refreshes_binders(self):
        body = sample_effects.ir.body
        renamed = alpha_rename(body)
        orig_loop = body[0]
        new_loop = renamed[0]
        assert orig_loop.iter != new_loop.iter
        assert orig_loop.iter.name == new_loop.iter.name

    def test_alpha_rename_preserves_free_symbols(self):
        body = sample_effects.ir.body
        assert free_symbols(alpha_rename(body)) == free_symbols(body)

    def test_subst_stmts_renames_lvalues(self):
        y = sample_effects.ir.arg_named("y").name
        z = Sym("z")
        new = subst_stmts(sample_effects.ir.body, {y: Read(z, (), INDEX)})
        assert z in written_buffers(new)


class TestSafetyPredicates:
    def test_reorder_safe_for_reductions(self):
        ir = sample_effects.ir
        loop = ir.body[0]
        assert reorder_safe(loop.iter, Sym("j"), loop.body)

    def test_fission_safe_private_cells(self):
        @proc
        def private(N: size, a: f32[N] @ DRAM, b: f32[N] @ DRAM):
            for i in seq(0, N):
                a[i] = 1.0
                b[i] = a[i]

        loop = private.ir.body[0]
        assert fission_safe([loop.body[0]], [loop.body[1]], [loop.iter])

    def test_fission_unsafe_shared_cell(self):
        @proc
        def shared(N: size, a: f32[4] @ DRAM, b: f32[N] @ DRAM):
            for i in seq(0, N):
                a[0] = 1.0 * i
                b[i] = a[0]

        loop = shared.ir.body[0]
        assert not fission_safe([loop.body[0]], [loop.body[1]], [loop.iter])
