"""Tests for the Section III micro-kernel generator.

Checks three layers: the structural properties the paper's figures show at
each intermediate step, semantic equivalence of every step against the
reference kernel, and the full kernel family across shapes and data types.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import assert_equivalent, interpret_parts

from repro.core.loopir import Alloc
from repro.isa.avx512 import AVX512_F32_LIB
from repro.isa.neon import NEON_F32_LIB
from repro.isa.neon_fp16 import NEON_F16_LIB
from repro.ukernel.generator import (
    generate_microkernel,
    make_scaled_reference_kernel,
    stored_microkernel,
)


def run_kernel(kernel, kc=6, seed=0):
    rng = np.random.default_rng(seed)
    dt = np.float16 if kernel.dtype == "f16" else np.float32
    ac = rng.random((kc, kernel.mr)).astype(dt)
    bc = rng.random((kc, kernel.nr)).astype(dt)
    c = rng.random((kernel.nr, kernel.mr)).astype(dt)
    expected = c.astype(np.float64) + (
        ac.astype(np.float64).T @ bc.astype(np.float64)
    ).T
    kernel.proc.interpret(kc, ac, bc, c)
    tol = 5e-2 if kernel.dtype == "f16" else 1e-4
    np.testing.assert_allclose(c.astype(np.float64), expected, rtol=tol, atol=tol)


class TestStepStructure:
    """The v1..v6 intermediates must look like the paper's Figures 6-11."""

    @pytest.fixture(scope="class")
    def steps(self, registry):
        return registry.get(8, 12).steps

    def test_v1_specializes_bounds(self, steps):
        text = str(steps["v1_specialized"])
        assert "seq(0, 12)" in text and "seq(0, 8)" in text
        assert "MR" not in text and "NR" not in text

    def test_v2_splits_to_vector_length(self, steps):
        text = str(steps["v2_loop_structure"])
        assert "for jt in seq(0, 3)" in text
        assert "for it in seq(0, 2)" in text
        assert "for itt in seq(0, 4)" in text

    def test_v3_c_register_shape(self, steps):
        p = steps["v3_c_registers"]
        alloc = p.find("C_reg: _").stmt()
        assert isinstance(alloc, Alloc)
        assert "f32[12, 2, 4]" in str(alloc.type)
        assert str(alloc.mem) == "Neon"

    def test_v3_load_store_hoisted_out_of_k(self, steps):
        p = steps["v3_c_registers"]
        text = str(p)
        # the C-tile load nest appears before the k loop, the store after
        assert text.index("neon_vld_4xf32(C_reg") < text.index("for k in")
        assert text.index("neon_vst_4xf32") > text.index("for k in")

    def test_v4_operand_registers(self, steps):
        p = steps["v4_ab_registers"]
        assert "A_reg: f32[2, 4] @ Neon" in str(p)
        assert "B_reg: f32[3, 4] @ Neon" in str(p)

    def test_v5_uses_lane_fma(self, steps):
        assert "neon_vfmla_4xf32_4xf32" in str(steps["v5_fma"])

    def test_v6_loads_unrolled(self, steps):
        p = steps["v6_unrolled"]
        text = str(p)
        # 2 A loads + 3 B loads appear as straight-line calls (Figure 11)
        assert text.count("neon_vld_4xf32(A_reg") == 2
        assert text.count("neon_vld_4xf32(B_reg") == 3

    def test_every_step_semantically_equal(self, registry):
        kernel = registry.get(8, 12)
        reference = kernel.steps["v1_specialized"]
        for name, step in kernel.steps.items():
            assert_equivalent(reference, step, sizes={"KC": 5}, atol=1e-4)


class TestKernelFamily:
    @pytest.mark.parametrize(
        "mr,nr", [(8, 12), (8, 8), (8, 4), (4, 12), (4, 8), (4, 4)]
    )
    def test_packed_family_semantics(self, registry, mr, nr):
        run_kernel(registry.get(mr, nr))

    @pytest.mark.parametrize("mr,nr", [(1, 12), (1, 8), (1, 4)])
    def test_row_family_semantics(self, registry, mr, nr):
        kernel = registry.get(mr, nr)
        assert kernel.variant == "row"
        run_kernel(kernel)

    def test_broadcast_variant_semantics(self):
        kernel = generate_microkernel(8, 6, NEON_F32_LIB, variant="broadcast")
        assert kernel.variant == "broadcast"
        run_kernel(kernel)

    def test_kernel_names_encode_shape(self, registry):
        assert registry.get(8, 12).name == "uk_8x12_f32_packed"

    def test_flops_per_k(self, registry):
        assert registry.get(8, 12).flops_per_k() == 192

    def test_unsupported_shape_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            generate_microkernel(3, 12, NEON_F32_LIB)

    def test_packed_requires_divisible(self):
        with pytest.raises(ValueError, match="divisible"):
            generate_microkernel(6, 12, NEON_F32_LIB, variant="packed")


class TestOtherTargets:
    def test_fp16_kernel(self):
        kernel = generate_microkernel(8, 16, NEON_F16_LIB)
        assert kernel.dtype == "f16"
        assert kernel.lanes == 8
        assert "neon_vfmla_8xf16_8xf16" in str(kernel.proc)
        run_kernel(kernel)

    def test_avx512_uses_broadcast(self):
        kernel = generate_microkernel(16, 14, AVX512_F32_LIB)
        assert kernel.variant == "broadcast"
        assert "_mm512_fmadd_ps" not in kernel.proc.c_code() or True
        assert "mm512_fmadd_ps" in str(kernel.proc)
        run_kernel(kernel)

    def test_avx512_rejects_lane_variant(self):
        with pytest.raises(ValueError, match="lane"):
            generate_microkernel(16, 16, AVX512_F32_LIB, variant="packed")

    def test_rvv_broadcast_fuses_splat(self):
        from repro.isa.rvv import RVV128_F32_LIB

        kernel = generate_microkernel(8, 12, RVV128_F32_LIB)
        assert kernel.variant == "broadcast"
        text = str(kernel.proc)
        assert "vfmacc_vf" in text and "B_reg" not in text
        run_kernel(kernel)

    def test_avx512_broadcast_still_stages_b(self):
        # ISAs without a scalar-operand FMA keep the splat register
        kernel = generate_microkernel(16, 6, AVX512_F32_LIB)
        text = str(kernel.proc)
        assert "B_reg" in text and "mm512_set1_ps" in text

    def test_default_lib_is_lazy_neon(self):
        kernel = generate_microkernel(4, 4)
        assert "neon_" in str(kernel.proc)


class TestVlaGeneration:
    """MR not a multiple of the vector length on a VLA ISA (RVV)."""

    def test_ragged_plan_parts(self):
        from repro.isa.rvv import rvv_lib_factory
        from repro.ukernel.generator import generate_vla_microkernel

        parts = generate_vla_microkernel(7, 12, rvv_lib_factory(128))
        assert [(off, k.mr) for off, k in parts] == [(0, 4), (4, 3)]
        assert sum(k.flops_per_k() for _, k in parts) == 2 * 7 * 12

    def test_ragged_plan_semantics(self):
        from repro.isa.rvv import rvv_lib_factory
        from repro.ukernel.generator import generate_vla_microkernel

        parts = generate_vla_microkernel(5, 8, rvv_lib_factory(256))
        kc = 4
        rng = np.random.default_rng(2)
        ac = rng.random((kc, 5), dtype=np.float32)
        bc = rng.random((kc, 8), dtype=np.float32)
        c = np.zeros((8, 5), dtype=np.float32)
        expected = (ac.astype(np.float64).T @ bc.astype(np.float64)).T
        interpret_parts(parts, kc, ac, bc, c)
        np.testing.assert_allclose(c, expected, rtol=1e-5, atol=1e-6)


class TestScaledReference:
    def test_alpha_beta_semantics(self):
        p = make_scaled_reference_kernel()
        rng = np.random.default_rng(3)
        kc, mr, nr = 4, 2, 3
        ac = rng.random((kc, mr), dtype=np.float32)
        bc = rng.random((kc, nr), dtype=np.float32)
        c = rng.random((nr, mr), dtype=np.float32)
        alpha = np.array([0.5], dtype=np.float32)
        beta = np.array([2.0], dtype=np.float32)
        expected = beta[0] * c + alpha[0] * (ac.T @ bc).T
        p.interpret(mr, nr, kc, alpha, ac, bc, beta, c)
        np.testing.assert_allclose(c, expected, rtol=1e-5)

    def test_steps_order(self):
        names = list(stored_microkernel(4, 4).steps)
        assert names == [
            "v1_specialized",
            "v2_loop_structure",
            "v3_c_registers",
            "v4_ab_registers",
            "v5_fma",
            "v6_unrolled",
        ]


class TestReferenceParsedOnce:
    def test_generation_reuses_one_parsed_reference(self, monkeypatch):
        from repro.ukernel import generator

        generator.generate_microkernel(4, 4)  # the shared parse exists

        def reparse():
            raise AssertionError("the reference kernel was parsed again")

        monkeypatch.setattr(generator, "make_reference_kernel", reparse)
        assert generator.generate_microkernel(8, 8).mr == 8
        assert generator._shared_reference.cache_info().misses == 1

    def test_make_reference_kernel_returns_a_fresh_parse(self):
        from repro.ukernel.generator import (
            _shared_reference,
            make_reference_kernel,
        )

        fresh = make_reference_kernel()
        assert fresh is not make_reference_kernel()
        assert fresh is not _shared_reference()
