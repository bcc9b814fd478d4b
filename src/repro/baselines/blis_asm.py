"""The 'BLIS' baseline: the BLIS v0.9 assembly 8x12 micro-kernel.

The BLIS kernel's k-loop is hand-scheduled assembly — our generated 8x12
instruction stream matches it one for one (the paper's Figure 12 makes the
same observation about the gcc output of the generated C).  What this model
adds on top of the raw trace:

* **Edge-case logic** — like the NEON kernel, the monolithic BLIS kernel
  branches over edge-case handling on every call.
* **C prefetch** (library mode only) — the BLIS *library* kernel issues
  prefetches for the next C micro-tile during the accumulation loop, hiding
  the tile's DRAM latency.  This is the advantage the paper credits for
  library-BLIS winning the squarish sweep: "the GEMM algorithm used in the
  BLIS library implements prefetching inside the micro-kernel that is not
  used in the ALG+BLIS approach."  The flag is consumed by the GEMM timing
  model (``prefetch_c=True``), not by the trace itself.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.pipeline import KernelTrace, trace_from_kernel
from repro.ukernel.generator import GeneratedKernel, stored_microkernel

#: per-invocation cycles of edge-case dispatch logic in the monolithic kernel
EDGE_LOGIC_CYCLES = 40.0


def blis_kernel_model(
    mr: int = 8, nr: int = 12, kernel: Optional[GeneratedKernel] = None
) -> KernelTrace:
    """Trace of the BLIS assembly kernel (default 8x12)."""
    kernel = kernel or stored_microkernel(mr, nr)
    trace = trace_from_kernel(kernel)
    return KernelTrace(
        ops=trace.ops,
        flops_per_iter=trace.flops_per_iter,
        prologue_vector_ops=trace.prologue_vector_ops,
        epilogue_vector_ops=trace.epilogue_vector_ops,
        extra_call_cycles=EDGE_LOGIC_CYCLES,
    )
