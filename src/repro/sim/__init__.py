"""Performance simulation substrate.

The paper measures GFLOPS on a physical NVIDIA Carmel core; we substitute a
micro-architectural model with the same observable mechanisms:

* :mod:`repro.sim.pipeline` — an out-of-order scoreboard scheduler over the
  kernel's k-loop instruction trace.  Captures FMA latency hiding by
  accumulator count (why 8x12 peaks), functional-unit contention (why loads
  matter), and the issue constraints that separate intrinsics from assembly.
* :mod:`repro.sim.memory` — the analytical memory model for full GEMM:
  packing traffic, C streaming, per-level residency of the BLIS tiles.
* :mod:`repro.sim.timing` — composition: solo-mode kernel timing and
  five-loop GEMM timing (the one-slice case of the batch engine,
  :mod:`repro.sim.vectorized`).
* :mod:`repro.sim.parallel` — the multi-threaded execution model: the
  jc/ic/pc candidate grids (with the partial-C reduction split),
  NUMA-aware replica topology views, and the threaded GEMM breakdown.
"""

from .parallel import (
    ParallelBreakdown,
    parallel_gemm_breakdown,
    replica_numa_nodes,
    replica_topology,
)
from .pipeline import KernelTrace, PipelineModel, trace_from_kernel
from .timing import gemm_time_model, gemm_time_models, solo_kernel_gflops

__all__ = [
    "KernelTrace",
    "ParallelBreakdown",
    "PipelineModel",
    "gemm_time_model",
    "gemm_time_models",
    "parallel_gemm_breakdown",
    "replica_numa_nodes",
    "replica_topology",
    "solo_kernel_gflops",
    "trace_from_kernel",
]
