"""Figure 12: the generated 8x12 k-loop matches BLIS's hand assembly.

The paper compiles the generated C with ``gcc-10 -S`` and inspects the
k-loop: 5 quad-register loads (two ``ldp`` + one ``ldr``), 24 ``fmla``, and
the loop bookkeeping, within the 32-register budget.  This benchmark
regenerates that instruction stream with the pseudo-assembly backend and
asserts those exact counts.
"""

from __future__ import annotations


def _trace(ctx):
    return ctx.target.get(8, 12).proc.asm_trace()


def test_fig12_kloop_assembly(benchmark, ctx):
    trace = benchmark(_trace, ctx)
    assert trace.count("fmla") == 24  # Figure 12 lines 8-31
    assert trace.count("ldp") == 2  # lines 2 and 4
    assert trace.count("ldr") == 1  # line 6
    assert trace.vector_loads() == 5
    assert trace.count("add") == 1 and trace.count("bne") == 1
    assert trace.reg_count <= 32  # fits the ARM register file
    assert trace.reg_count == 29  # 24 accumulators + 5 operands
