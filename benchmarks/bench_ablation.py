"""Ablations: isolating the design choices behind the paper's results.

DESIGN.md section 5 lists the knobs worth turning; each benchmark here
switches one off and asserts the expected movement:

* **Accumulator count vs FMA latency** — why 8x12 is the register-tile
  sweet spot: fewer accumulators leave FMA latency exposed.
* **C prefetch** — the single mechanism separating library-BLIS from
  ALG+BLIS (Figure 14's ordering collapses without it).
* **Kernel selection** — ALG+EXO with the family beats ALG+EXO pinned to
  8x12 on edge-heavy shapes (the paper's core claim isolated).
* **f32 vs f16** — the contributed half-precision support doubles modelled
  throughput on the same schedule.
"""

from __future__ import annotations

import pytest

from repro.eval.harness import (
    baseline_gemm_breakdown,
    exo_gemm_breakdown,
)
from repro.isa.machine import CARMEL
from repro.isa.neon_fp16 import NEON_F16_LIB
from repro.sim.pipeline import trace_from_kernel
from repro.sim.timing import solo_kernel_gflops
from repro.ukernel.generator import generate_microkernel


def test_ablation_accumulators_hide_fma_latency(benchmark, ctx):
    """Throughput must rise monotonically with accumulator count and the
    smallest tile must sit at the latency-bound floor (1 FMA / cycle)."""

    def sweep():
        pm = ctx.model.pipeline
        out = {}
        for shape in [(4, 4), (4, 8), (8, 4), (8, 8), (4, 12), (8, 12)]:
            trace = trace_from_kernel(ctx.target.get(*shape))
            cyc = pm.steady_cycles_per_iter(trace)
            out[shape] = trace.flops_per_iter / cyc
        return out

    rates = benchmark(sweep)
    assert rates[(4, 4)] < rates[(8, 8)] < rates[(8, 12)]
    # 4 accumulator chains, latency 4, 128-bit lanes: 8 flops/cycle floor
    assert rates[(4, 4)] == pytest.approx(8.0, rel=0.05)
    # 24 accumulators: above 80% of the 16 flops/cycle machine peak (the
    # residue is the operand loads sharing the two vector slots)
    assert rates[(8, 12)] > 0.80 * 16.0


def test_ablation_prefetch_explains_fig14(benchmark, ctx):
    """Remove prefetch from library-BLIS and its Figure 14 lead vanishes."""

    def compare():
        m = n = k = 2000
        with_pf = baseline_gemm_breakdown(
            m, n, k, ctx.blis_trace(), prefetch_c=True, ctx=ctx
        )
        without = baseline_gemm_breakdown(
            m, n, k, ctx.blis_trace(), prefetch_c=False, ctx=ctx
        )
        return with_pf, without

    with_pf, without = benchmark(compare)
    assert with_pf.gflops > without.gflops
    assert without.c_stall_cycles > 0 and with_pf.c_stall_cycles == 0
    # prefetch is worth a few percent at this size — exactly the Figure 14 gap
    assert 1.01 < with_pf.gflops / without.gflops < 1.10


def test_ablation_family_vs_pinned_8x12(benchmark, ctx):
    """On the ResNet m=49 layers the family beats the monolithic plan."""

    def compare():
        m, n, k = 49, 512, 4608  # Table I row 17
        family = exo_gemm_breakdown(m, n, k, main=(8, 12), ctx=ctx)
        monolithic = baseline_gemm_breakdown(
            m, n, k, ctx.blis_trace(), prefetch_c=False, ctx=ctx
        )
        return family, monolithic

    family, monolithic = benchmark(compare)
    assert family.gflops > 1.05 * monolithic.gflops


def test_ablation_fp16_doubles_throughput(benchmark):
    """Section III-D: the same schedule at f16 (8 lanes) doubles the rate."""

    def build():
        kernel = generate_microkernel(8, 16, NEON_F16_LIB)
        trace = trace_from_kernel(kernel)
        return solo_kernel_gflops(trace, 8, 16, kc=512, machine=CARMEL)

    f16_rate = benchmark(build)
    assert CARMEL.peak_gflops(16) == 2 * CARMEL.peak_gflops(32)
    assert f16_rate > 0.75 * CARMEL.peak_gflops(16)
    assert f16_rate > 1.7 * 30.5  # ~2x the f32 solo rate
