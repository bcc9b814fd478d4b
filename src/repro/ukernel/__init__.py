"""Micro-kernel generation: the paper's contribution (Section III).

* :mod:`repro.ukernel.generator` — the step-by-step schedule from the naive
  kernel (Figure 5) to the fully vectorized, unrolled kernel (Figure 11),
  parameterized over (mr, nr), data type, and instruction library.
* :mod:`repro.ukernel.edge` — generation of edge-case kernel families.
* :mod:`repro.ukernel.registry` — kernel selection by modelled
  performance ("evaluating a number of generated micro-kernels"); a
  tile's kernels come from its ISA target (:mod:`repro.isa.targets`).
"""

from .extended import (
    generate_nopack_microkernel,
    generate_scaled_microkernel,
    make_nopack_reference_kernel,
)
from .generator import (
    GeneratedKernel,
    generate_microkernel,
    make_reference_kernel,
    make_scaled_reference_kernel,
)
from .registry import select_kernel_for

__all__ = [
    "GeneratedKernel",
    "generate_microkernel",
    "generate_nopack_microkernel",
    "generate_scaled_microkernel",
    "make_nopack_reference_kernel",
    "make_reference_kernel",
    "make_scaled_reference_kernel",
    "select_kernel_for",
]
