"""GEMM shapes and BLIS tile parameters for the analytical memory model.

The BLIS loop structure pins each operand at a known level (Figure 2 of the
paper): the packed Bc panel lives in L3, Ac in L2, the Br sliver in L1, and
the C micro-tile streams from main memory through the hierarchy.  Given the
tiling parameters, traffic per level is a closed-form function of the
problem shape: the packing costs and the C-tile streaming penalty that the
in-kernel prefetch of the BLIS library hides (the mechanism behind the
paper's Figure 14 ordering).  The batch engine
(:mod:`repro.sim.vectorized`) evaluates that closed form; its scalar form,
``memory_cost``, is the test oracle (``tests/parallel_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GemmShape:
    m: int
    n: int
    k: int

    @property
    def flops(self) -> int:
        return 2 * self.m * self.n * self.k


@dataclass(frozen=True)
class TileParams:
    mc: int
    kc: int
    nc: int
    mr: int
    nr: int
