"""The 'NEON' baseline: a hand-written Neon-intrinsics 8x12 micro-kernel.

The paper's NEON comparator is a C micro-kernel written directly with Neon
intrinsic calls.  Its instruction stream is the same as the generated 8x12
kernel (same loads, same 24 lane FMAs) — the differences the paper
observes, and this model encodes:

* **Compiler overhead** — gcc's register allocation and scheduling of
  intrinsics code emits a couple of extra vector micro-ops per k-iteration
  (register moves and address-increment splits the assembly writer avoids).
  The paper: "NEON is slower than BLIS, and the main difference is that the
  former is written with Neon intrinsics while the latter is in assembly."
* **Edge-case logic** — the monolithic kernel carries the branching that
  selects masked stores for partial tiles, charged per invocation.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.pipeline import KernelTrace, TraceOp, trace_from_kernel
from repro.ukernel.generator import GeneratedKernel, stored_microkernel

#: extra vector micro-ops per k-iteration from compiled intrinsics code
INTRINSIC_VECTOR_OVERHEAD = 2
#: per-invocation cycles of edge-case dispatch logic in the monolithic kernel
EDGE_LOGIC_CYCLES = 45.0


def neon_kernel_model(
    mr: int = 8, nr: int = 12, kernel: Optional[GeneratedKernel] = None
) -> KernelTrace:
    """Trace of the hand-written intrinsics kernel (default 8x12)."""
    kernel = kernel or stored_microkernel(mr, nr)
    trace = trace_from_kernel(kernel)
    extra = [
        TraceOp("fma", 1, None, (), name="intrinsic_overhead")
        for _ in range(INTRINSIC_VECTOR_OVERHEAD)
    ]
    return KernelTrace(
        ops=trace.ops + extra,
        flops_per_iter=trace.flops_per_iter,
        prologue_vector_ops=trace.prologue_vector_ops,
        epilogue_vector_ops=trace.epilogue_vector_ops,
        extra_call_cycles=EDGE_LOGIC_CYCLES,
    )
