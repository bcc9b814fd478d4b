"""Tests for the extended generators: scaled (alpha/beta) and non-packed."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codegen.asm import _find_k_loop
from repro.core.loopir import Call, For
from repro.isa.avx512 import AVX512_F32_LIB
from repro.sim.pipeline import trace_from_kernel
from repro.ukernel.extended import (
    generate_nopack_microkernel,
    generate_scaled_microkernel,
)
from repro.ukernel.generator import stored_microkernel


class TestNopackKernel:
    @pytest.fixture(scope="class")
    def kernel(self):
        return generate_nopack_microkernel(5, 12)

    def test_natural_layout_signature(self, kernel):
        names = kernel.proc.arg_names()
        assert names == ["KC", "A", "B", "C"]
        text = str(kernel.proc)
        assert "A: f32[5, KC]" in text  # A unpacked, natural layout
        assert "C: f32[5, 12]" in text  # C not transposed

    def test_broadcasts_a(self, kernel):
        text = str(kernel.proc)
        assert "neon_vdup_4xf32(A_reg" in text
        assert "neon_vfmadd_4xf32_4xf32" in text
        assert "neon_vfmla" not in text  # item 4: plain FMA, no lane form

    def test_i_loop_not_split(self, kernel):
        # the paper's item 1: loop i is never divided
        assert "for it in" not in str(kernel.proc)

    @pytest.mark.parametrize("mr,kc", [(1, 4), (3, 7), (5, 6), (8, 5)])
    def test_semantics_any_mr(self, mr, kc):
        kernel = generate_nopack_microkernel(mr, 8)
        rng = np.random.default_rng(mr)
        a = rng.random((mr, kc), dtype=np.float32)
        b = rng.random((kc, 8), dtype=np.float32)
        c = rng.random((mr, 8), dtype=np.float32)
        expected = c + a @ b
        kernel.proc.interpret(kc, a, b, c)
        np.testing.assert_allclose(c, expected, rtol=1e-4)

    def test_rejects_ragged_nr(self):
        with pytest.raises(ValueError, match="divisible"):
            generate_nopack_microkernel(4, 10)

    def test_avx512_nopack(self):
        kernel = generate_nopack_microkernel(3, 16, AVX512_F32_LIB)
        kc = 4
        rng = np.random.default_rng(9)
        a = rng.random((3, kc), dtype=np.float32)
        b = rng.random((kc, 16), dtype=np.float32)
        c = np.zeros((3, 16), dtype=np.float32)
        kernel.proc.interpret(kc, a, b, c)
        np.testing.assert_allclose(c, a @ b, rtol=1e-4)

    def test_c_code_emits(self, kernel):
        code = kernel.proc.c_code()
        assert "vld1q_dup_f32" in code or "vld1q_f32" in code


class TestScaledKernel:
    @pytest.fixture(scope="class")
    def kernel(self):
        return generate_scaled_microkernel(8, 12)

    def _run(self, kernel, alpha, beta, kc=5, seed=0):
        rng = np.random.default_rng(seed)
        ac = rng.random((kc, 8), dtype=np.float32)
        bc = rng.random((kc, 12), dtype=np.float32)
        c = rng.random((12, 8), dtype=np.float32)
        expected = beta * c + alpha * (ac.T @ bc).T
        kernel.proc.interpret(
            kc,
            np.array([alpha], dtype=np.float32),
            ac,
            bc,
            np.array([beta], dtype=np.float32),
            c,
        )
        np.testing.assert_allclose(c, expected, rtol=1e-4, atol=1e-5)

    def test_identity_scaling(self, kernel):
        self._run(kernel, 1.0, 1.0)

    def test_general_alpha_beta(self, kernel):
        self._run(kernel, 0.5, 2.0, seed=1)

    def test_beta_zero_overwrites(self, kernel):
        self._run(kernel, 1.0, 0.0, seed=2)

    def test_alpha_zero_scales_only(self, kernel):
        self._run(kernel, 0.0, 3.0, seed=3)

    def test_scaling_nests_vectorized(self, kernel):
        text = str(kernel.proc)
        assert text.count("neon_vdup_4xf32") >= 2  # alpha and beta broadcasts
        assert "neon_vmul_4xf32" in text
        # the core still uses the lane FMA
        assert "neon_vfmla_4xf32_4xf32" in text

    def test_no_scalar_loops_remain_over_lanes(self, kernel):
        """Every innermost lane loop was replaced by an instruction."""

        def innermost_loops(block):
            for s in block:
                if isinstance(s, For):
                    if any(isinstance(b, For) for b in s.body):
                        yield from innermost_loops(s.body)
                    else:
                        yield s

        for loop in innermost_loops(kernel.proc.ir.body):
            assert all(isinstance(s, Call) for s in loop.body), str(loop.iter)

    def test_rejects_unsupported_shape(self):
        with pytest.raises(ValueError, match="divisible"):
            generate_scaled_microkernel(6, 12)

    def test_rejects_library_without_lane_fma(self):
        # AVX-512 has no lane-selecting FMA, so the packed core cannot
        # be built even on a lane-divisible tile
        with pytest.raises(ValueError, match="lane FMA"):
            generate_scaled_microkernel(16, 16, AVX512_F32_LIB)

    def test_step_names(self, kernel):
        assert list(kernel.steps) == [
            "v1_specialized",
            "v2_scaling_vectorized",
            "v3_core",
            "v4_copy_back",
        ]

    def test_k_loop_is_the_outer_product_loop(self, kernel):
        """The ``Ba = Bc * alpha`` nest is also bounded by KC; the k-loop
        is the one whose FMAs accumulate, priced like the packed core."""
        assert _find_k_loop(kernel.proc.ir).iter.name == "k"
        asm = kernel.proc.asm_trace()
        assert asm.count("fmla") == 24
        assert (asm.count("ldp"), asm.count("ldr")) == (2, 1)
        packed = stored_microkernel(8, 12)
        pipes = [op.pipe for op in trace_from_kernel(kernel).ops]
        assert pipes == [op.pipe for op in trace_from_kernel(packed).ops]
        assert pipes.count("fma") == 24 and "store" not in pipes
