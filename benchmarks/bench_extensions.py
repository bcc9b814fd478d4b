"""Extension benchmarks: beyond the paper's headline evaluation.

These exercise the paper's Section III-B/C/D extension points with the same
modelled substrate as the figure benchmarks:

* **Packed vs non-packed** — for a small GEMM, skipping the packing (the
  natural-layout broadcast kernel) beats pack-then-compute; for a large
  one, packing wins.  This is the trade the paper motivates the non-packed
  kernel with ("the size of the problem is small enough that the cost of
  packing is not worth it").
* **FP16 Figure 13** — the solo-mode experiment at half precision, using
  the paper's contributed f16 support: same kernel-shape story, doubled
  rates.
* **AVX-512 portability** — the Section III-C retarget: the broadcast
  schedule on 512-bit vectors, validated and timed on the server model.
"""

from __future__ import annotations

from parallel_oracle import memory_cost

from repro.isa.machine import AVX512_SERVER, CARMEL
from repro.isa.avx512 import AVX512_F32_LIB
from repro.isa.neon_fp16 import NEON_F16_LIB
from repro.sim.memory import GemmShape, TileParams
from repro.sim.pipeline import trace_from_kernel
from repro.sim.timing import solo_kernel_gflops
from repro.ukernel.extended import generate_nopack_microkernel
from repro.ukernel.generator import generate_microkernel


def test_extension_pack_vs_nopack_crossover(benchmark, ctx):
    """Packing pays off only above a problem-size threshold."""

    def compare(m, n, k):
        tiles = TileParams(mc=896, kc=512, nc=1788, mr=8, nr=12)
        shape = GemmShape(m, n, k)
        mem = memory_cost(shape, tiles, machine=ctx.machine)
        pack_cycles = mem.pack_a_cycles + mem.pack_b_cycles
        # compute rates of the two kernels
        pm = ctx.model.pipeline
        packed_trace = trace_from_kernel(ctx.target.get(8, 12))
        packed_rate = packed_trace.flops_per_iter / pm.steady_cycles_per_iter(
            packed_trace
        )
        nopack_trace = trace_from_kernel(generate_nopack_microkernel(8, 12))
        nopack_rate = nopack_trace.flops_per_iter / pm.steady_cycles_per_iter(
            nopack_trace
        )
        flops = shape.flops
        packed_total = flops / packed_rate + pack_cycles
        nopack_total = flops / nopack_rate
        return packed_total, nopack_total

    def run():
        # packing overhead scales with (1/m + 1/n) relative to compute, so
        # the crossover sits near m = n ~ 32 on this machine model
        return compare(16, 16, 256), compare(2000, 2000, 2000)

    small, large = benchmark(run)
    small_packed, small_nopack = small
    large_packed, large_nopack = large
    assert small_nopack < small_packed  # packing not worth it when tiny
    assert large_packed < large_nopack  # packing essential at scale


def test_extension_fp16_solo_mode(benchmark):
    """Figure 13's experiment at f16: the same shape story, ~2x the rates."""

    def run():
        out = {}
        for mr, nr in [(8, 16), (8, 8), (16, 8)]:
            kernel = generate_microkernel(mr, nr, NEON_F16_LIB)
            trace = trace_from_kernel(kernel)
            out[(mr, nr)] = solo_kernel_gflops(
                trace, mr, nr, kc=512, machine=CARMEL
            )
        return out

    rates = benchmark(run)
    peak16 = CARMEL.peak_gflops(16)
    assert all(r < peak16 for r in rates.values())
    assert rates[(8, 16)] > 0.75 * peak16  # big tile near f16 peak
    assert rates[(8, 16)] > rates[(8, 8)]  # same monotonicity as f32


def test_extension_avx512_portability(benchmark):
    """Section III-C: swap the instruction library, get a 512-bit kernel."""

    def run():
        kernel = generate_microkernel(16, 14, AVX512_F32_LIB)
        trace = trace_from_kernel(kernel)
        gflops = solo_kernel_gflops(
            trace, 16, 14, kc=256, machine=AVX512_SERVER
        )
        return kernel, gflops

    kernel, gflops = benchmark(run)
    assert kernel.variant == "broadcast"  # no lane FMA on AVX-512
    assert "_mm512_fmadd_ps" in kernel.proc.c_code()
    assert 0 < gflops < AVX512_SERVER.peak_gflops()
