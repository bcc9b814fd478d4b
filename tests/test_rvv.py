"""Tests for the RISC-V Vector backend: library, generation, VLA tails,
codegen, simulation, and the cross-ISA parity grid.

RVV is the vector-length-agnostic stress test of the retargeting story:
the library is *generated* per (VLEN, AVL), the broadcast schedule fuses
the splat into ``vfmacc.vf``, and ragged MR tiles run the same
instructions with ``vsetvl`` narrowed to the tail.
"""

from __future__ import annotations

import numpy as np
import parallel_oracle
import pytest
from helpers import interpret_parts

from repro.blis.reference import naive_gemm
from repro.isa.machine import (
    MACHINES,
    RVV_EDGE_VLEN128,
    RVV_SERVER_VLEN256,
    machine_by_name,
)
from repro.isa.rvv import (
    RVV128_F32_LIB,
    RVV256_F32_LIB,
    make_rvv_f32_lib,
    rvv_lib_factory,
)
from repro.isa.targets import ISA_TARGETS, family_for_lanes, target
from repro.ukernel.generator import (
    generate_microkernel,
    generate_vla_microkernel,
    make_reference_kernel,
)
from repro.ukernel.registry import (
    DEFAULT_FAMILY,
    registry_for_machine,
    select_kernel_for,
)


def run_and_check(kernel, kc=7, seed=0):
    """Interpret a generated kernel and compare against the float64 oracle
    and, bit-for-bit, against the interpreted reference kernel."""
    rng = np.random.default_rng(seed)
    ac = rng.random((kc, kernel.mr)).astype(np.float32)
    bc = rng.random((kc, kernel.nr)).astype(np.float32)
    c0 = rng.random((kernel.nr, kernel.mr)).astype(np.float32)

    got = c0.copy()
    kernel.proc.interpret(kc, ac, bc, got)

    oracle = naive_gemm(ac.T.copy(), bc, c0.T.copy()).T
    np.testing.assert_allclose(got, oracle, rtol=1e-5, atol=1e-5)

    ref = make_reference_kernel().partial_eval(kernel.mr, kernel.nr)
    exact = c0.copy()
    ref.interpret(kc, ac, bc, exact)
    np.testing.assert_array_equal(got, exact)


class TestRvvLibrary:
    def test_library_slots(self):
        for lib in (RVV128_F32_LIB, RVV256_F32_LIB):
            for slot in ("load", "store", "fma", "fma_vf", "broadcast",
                         "zero", "mul", "add"):
                assert lib[slot] is not None
            assert lib["fmla_lane"] is None
            assert lib["vla"] is True

    def test_lanes_follow_vlen(self):
        assert RVV128_F32_LIB["lanes"] == 4
        assert RVV256_F32_LIB["lanes"] == 8
        assert make_rvv_f32_lib(512)["lanes"] == 16

    def test_avl_narrows_lanes(self):
        tail = make_rvv_f32_lib(128, avl=3)
        assert tail["lanes"] == 3
        assert tail["memory"].vlen_bits == 128
        assert tail["memory"].reg_bits == 96

    def test_libs_are_memoized(self):
        kwargs = dict(load_latency=4, fma_latency=6)
        assert make_rvv_f32_lib(128, **kwargs) is RVV128_F32_LIB
        assert make_rvv_f32_lib(128, avl=4, **kwargs) is RVV128_F32_LIB

    def test_instruction_semantics(self):
        lib = RVV128_F32_LIB
        dst = np.zeros(4, dtype=np.float32)
        src = np.arange(4, dtype=np.float32)
        lib["load"].interpret(dst, src)
        np.testing.assert_array_equal(dst, src)
        acc = np.ones(4, dtype=np.float32)
        scalar = np.array([3.0], dtype=np.float32)
        lib["fma_vf"].interpret(acc, src, scalar)
        np.testing.assert_allclose(acc, 1 + src * 3)

    def test_instr_metadata(self):
        info = RVV128_F32_LIB["fma_vf"].ir.instr
        assert info.pipe == "fma"
        assert info.latency == 6
        assert "vfmacc_vf_f32m1" in info.c_instr
        assert "{vl}" in info.c_instr

    def test_bad_avl_rejected(self):
        with pytest.raises(ValueError, match="AVL"):
            make_rvv_f32_lib(128, avl=5)


class TestRvvGeneration:
    @pytest.mark.parametrize(
        "vlen,mr,nr",
        [
            (128, 8, 12),
            (128, 8, 8),
            (128, 4, 12),
            (128, 4, 4),
            (128, 1, 12),
            (256, 8, 24),
            (256, 16, 24),
            (256, 8, 16),
            (256, 8, 8),
            (256, 1, 8),
        ],
    )
    def test_family_semantics(self, vlen, mr, nr):
        lib = make_rvv_f32_lib(vlen)
        kernel = generate_microkernel(mr, nr, lib)
        run_and_check(kernel)

    def test_broadcast_is_fused(self):
        kernel = generate_microkernel(8, 12, RVV128_F32_LIB)
        text = str(kernel.proc)
        assert kernel.variant == "broadcast"
        assert "vfmacc_vf" in text
        assert "B_reg" not in text  # splat fused into the FMA

    def test_row_variant_uses_splat(self):
        kernel = generate_microkernel(1, 12, RVV128_F32_LIB)
        assert kernel.variant == "row"
        assert "vfmv_v_f" in str(kernel.proc)

    def test_packed_variant_rejected(self):
        with pytest.raises(ValueError, match="lane"):
            generate_microkernel(8, 12, RVV128_F32_LIB, variant="packed")


class TestVlaTails:
    @pytest.mark.parametrize("mr", [7, 6, 5, 3, 2, 11])
    def test_ragged_mr_exact(self, mr):
        parts = generate_vla_microkernel(mr, 12, rvv_lib_factory(128))
        assert sum(k.mr for _, k in parts) == mr
        kc = 5
        rng = np.random.default_rng(1)
        ac = rng.random((kc, mr), dtype=np.float32)
        bc = rng.random((kc, 12), dtype=np.float32)
        c = rng.random((12, mr)).astype(np.float32)
        oracle = naive_gemm(ac.T.copy(), bc, c.T.copy()).T
        interpret_parts(parts, kc, ac, bc, c)
        np.testing.assert_allclose(c, oracle, rtol=1e-5, atol=1e-5)

    def test_tail_kernel_narrowed(self):
        parts = generate_vla_microkernel(7, 12, rvv_lib_factory(128))
        off, tail = parts[-1]
        assert (off, tail.mr, tail.lanes) == (4, 3, 3)
        assert "vl3" in tail.proc.c_code()

    def test_lane_multiple_has_no_tail(self):
        parts = generate_vla_microkernel(8, 12, rvv_lib_factory(128))
        assert [(off, k.mr, k.lanes) for off, k in parts] == [(0, 8, 4)]

    def test_sub_lane_tile_is_single_tail(self):
        parts = generate_vla_microkernel(2, 8, rvv_lib_factory(256))
        assert len(parts) == 1
        assert parts[0][1].lanes == 2


class TestRvvCodegen:
    @pytest.fixture(scope="class")
    def c_code(self):
        return generate_microkernel(8, 12, RVV128_F32_LIB).proc.c_code()

    def test_header_and_prelude(self, c_code):
        assert "#include <riscv_vector.h>" in c_code
        assert "const size_t vl4 = __riscv_vsetvl_e32m1(4);" in c_code

    def test_vector_type_and_intrinsics(self, c_code):
        assert "vfloat32m1_t C_reg[12][2];" in c_code
        assert "__riscv_vle32_v_f32m1(&" in c_code
        assert "__riscv_vse32_v_f32m1(&" in c_code
        assert "__riscv_vfmacc_vf_f32m1(" in c_code

    def test_vl_threaded_through_calls(self, c_code):
        # every RVV intrinsic call carries the vsetvl result
        for line in c_code.splitlines():
            if "__riscv_v" in line and "vsetvl" not in line:
                assert "vl4" in line, line

    def test_vlen256_distinct_vl(self):
        code = generate_microkernel(8, 16, RVV256_F32_LIB).proc.c_code()
        assert "__riscv_vsetvl_e32m1(8)" in code

    def test_golden_kloop(self):
        """The fused k-loop: unrolled A loads, FMA in the j/it nest, and —
        the fusion payoff — no splat instruction anywhere in the loop."""
        code = generate_microkernel(8, 12, RVV128_F32_LIB).proc.c_code()
        kloop = code[code.index("for (int_fast32_t k = 0") :]
        assert kloop.count("__riscv_vle32_v_f32m1") == 2  # A loads, unrolled
        assert kloop.count("__riscv_vfmacc_vf_f32m1") == 1  # in the j x it nest
        assert "__riscv_vfmv_v_f_f32m1" not in kloop

    def test_trace_op_counts(self):
        """Per-iteration trace: 24 FMAs + 2 loads — one vector op fewer
        per j step than a splat+vv pair would need (Figure-12 analogue)."""
        from repro.sim.pipeline import trace_from_kernel

        kernel = generate_microkernel(8, 12, RVV128_F32_LIB)
        counts = trace_from_kernel(kernel).counts()
        assert counts["fma"] == 24
        assert counts["load"] == 2
        assert "store" not in counts


class TestRvvSimulation:
    def test_edge_core_respects_chime(self):
        from repro.sim.pipeline import PipelineModel, trace_from_kernel

        kernel = generate_microkernel(8, 12, RVV128_F32_LIB)
        trace = trace_from_kernel(kernel)
        cycles = PipelineModel(machine=RVV_EDGE_VLEN128).steady_cycles_per_iter(
            trace
        )
        # 26 vector ops x 2 chimes on one pipe: at least 52 cycles/iter
        assert cycles >= 2 * sum(
            1 for op in trace.ops if op.pipe in ("fma", "load", "store")
        )

    def test_peak_derated_by_chime(self):
        assert RVV_EDGE_VLEN128.peak_gflops() == pytest.approx(6.4)
        assert RVV_SERVER_VLEN256.peak_gflops() == pytest.approx(64.0)

    def test_solo_near_peak(self):
        from repro.eval.harness import machine_context, solo_sweep_data

        for machine in (RVV_EDGE_VLEN128, RVV_SERVER_VLEN256):
            ctx = machine_context(machine)
            mr, nr = ctx.main_tile
            row = solo_sweep_data(ctx, shapes=((mr, nr),))[0]
            assert 0.70 <= row["peak_frac"] <= 1.0

    def test_analytical_tiles_without_l3(self):
        from repro.blis.params import analytical_tile_params

        tiles = analytical_tile_params(8, 12, RVV_EDGE_VLEN128)
        assert tiles.kc >= 32
        assert tiles.mc % 8 == 0
        assert tiles.nc == 4092  # 4096 rounded down to nr=12

    def test_selection_on_rvv(self):
        shape, breakdown = select_kernel_for(
            96, 96, 96, machine=RVV_SERVER_VLEN256
        )
        assert shape in registry_for_machine(RVV_SERVER_VLEN256).family_shapes
        assert breakdown.gflops > 0

    def test_gemm_model_uses_vla_exact_cover(self):
        """Ragged GEMM shapes on RVV go through the vsetvl tail path."""
        from repro.eval.harness import machine_context

        ctx = machine_context(RVV_EDGE_VLEN128)
        for m, n in ((50, 70), (3, 12), (49, 500)):
            b = parallel_oracle.exo_gemm_breakdown(m, n, 64, ctx=ctx)
            assert b.gflops > 0
        # the ragged tiles' parts are cached per (h, w): 50 rows at an
        # 8-row main tile leave a 2-row reduced-vsetvl tail
        ((_, tail),) = target("rvv128")._parts[(2, 12)]
        assert tail.lanes == 2


class TestTargetsRegistry:
    def test_builtin_targets_present(self):
        for name in ("neon", "avx512", "rvv128", "rvv256"):
            assert name in ISA_TARGETS

    def test_family_matches_lanes(self):
        assert target("neon").family == DEFAULT_FAMILY
        assert family_for_lanes(4) == DEFAULT_FAMILY
        # wider ISAs shed the tallest tiles to stay inside 32 registers
        assert target("rvv256").family[0] == (8, 24)

    def test_families_fit_register_file(self):
        from repro.isa.targets import _tile_registers

        for name, t in ISA_TARGETS.items():
            lanes = t.lib["lanes"]
            for mr, nr in t.family:
                regs = _tile_registers(mr, nr, lanes)
                assert regs <= t.machine.vector_registers, (
                    f"{name} tile {mr}x{nr} needs {regs} registers"
                )

    def test_machine_registry(self):
        assert machine_by_name("rvv128") is RVV_EDGE_VLEN128
        assert MACHINES["rvv256"] is RVV_SERVER_VLEN256
        with pytest.raises(KeyError, match="unknown machine"):
            machine_by_name("z80")

    def test_registry_shares_kernels_per_isa(self):
        r1 = registry_for_machine(RVV_EDGE_VLEN128)
        r2 = registry_for_machine(RVV_EDGE_VLEN128)
        assert r1 is r2
        assert r1.lib["lanes"] == 4


# ---------------------------------------------------------------------------
# Cross-ISA parity: every backend, same numbers
# ---------------------------------------------------------------------------

_PARITY_SHAPES = [(8, 12), (4, 8), (1, 12)]


def _parity_cases():
    cases = []
    for name in sorted(ISA_TARGETS):
        t = ISA_TARGETS[name]
        lanes = t.lib["lanes"]
        for mr, nr in _PARITY_SHAPES:
            # scale the lanes=4 grid to the target's vector length
            mr_s = mr if mr == 1 else mr * lanes // 4
            nr_s = nr * lanes // 4
            cases.append(pytest.param(name, mr_s, nr_s,
                                      id=f"{name}-{mr_s}x{nr_s}"))
    return cases


class TestCrossIsaParity:
    @pytest.mark.parametrize("isa,mr,nr", _parity_cases())
    @pytest.mark.parametrize("kc", [1, 5, 16])
    def test_generated_kernel_matches_reference(self, isa, mr, nr, kc):
        kernel = generate_microkernel(mr, nr, target(isa).lib)
        run_and_check(kernel, kc=kc, seed=kc)

    @pytest.mark.smoke
    @pytest.mark.parametrize("isa", sorted(ISA_TARGETS))
    def test_smoke_one_kernel_per_isa(self, isa):
        t = target(isa)
        kernel = generate_microkernel(*t.main_tile, t.lib)
        run_and_check(kernel, kc=3)
