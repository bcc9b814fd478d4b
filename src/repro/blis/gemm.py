"""The five-loop BLIS-like GEMM driver (Figure 1 of the paper).

This is the *functional* path: it actually computes matrix products by
packing operand blocks and dispatching generated micro-kernels through the
reference interpreter.  Tile selection along the m dimension follows the
paper's edge-case strategy: full ``mr`` rows first, then progressively
smaller kernels from the family for the ragged remainder.

Performance questions are answered by :mod:`repro.sim.timing`, not here —
interpreting IR is orders of magnitude slower than C, so functional tests
use small problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.memory import TileParams
from repro.ukernel.edge import decompose_extent
from repro.ukernel.generator import GeneratedKernel

from .packing import load_c_tile, pack_a_panels, pack_b_panels, unpack_c_tile
from .params import analytical_tile_params, clamp_tiles


@dataclass
class BlisGemm:
    """A GEMM engine bound to a family of generated micro-kernels.

    ``kernels`` maps (mr, nr) to :class:`GeneratedKernel`.  The main kernel
    (largest mr x nr) drives tiling; smaller family members serve edges.
    """

    kernels: Dict[Tuple[int, int], GeneratedKernel]
    tiles: Optional[TileParams] = None

    def __post_init__(self):
        if not self.kernels:
            raise ValueError("BlisGemm needs at least one micro-kernel")
        self.main_shape = max(self.kernels, key=lambda s: s[0] * s[1])
        if self.tiles is None:
            mr, nr = self.main_shape
            self.tiles = analytical_tile_params(mr, nr)

    # -- tiling decisions ------------------------------------------------------

    def m_chunks(self, m: int) -> List[int]:
        """Split the m extent into kernel row heights (largest first); a
        ragged edge takes one padded tile of the smallest height."""
        return decompose_extent(m, [s[0] for s in self.kernels])

    def n_chunks(self, n: int) -> List[int]:
        """Split the n extent into kernel widths, as :meth:`m_chunks`."""
        return decompose_extent(n, [s[1] for s in self.kernels])

    def kernel_for(self, mr: int, nr: int) -> GeneratedKernel:
        try:
            return self.kernels[(mr, nr)]
        except KeyError:
            raise KeyError(
                f"kernel family has no {mr}x{nr} member; available: "
                f"{sorted(self.kernels)}"
            ) from None

    # -- the five loops -----------------------------------------------------------

    def __call__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """C += A @ B in place; returns C for convenience."""
        m, k = a.shape
        k2, n = b.shape
        if k != k2 or c.shape != (m, n):
            raise ValueError(
                f"shape mismatch: A{a.shape} B{b.shape} C{c.shape}"
            )
        tiles = clamp_tiles(self.tiles, m, n, k)
        nc, kc, mc = tiles.nc, tiles.kc, tiles.mc

        for jc in range(0, n, nc):  # L1
            nc_eff = min(nc, n - jc)
            for pc in range(0, k, kc):  # L2
                kc_eff = min(kc, k - pc)
                b_block = b[pc : pc + kc_eff, jc : jc + nc_eff]
                for ic in range(0, m, mc):  # L3
                    mc_eff = min(mc, m - ic)
                    a_block = a[ic : ic + mc_eff, pc : pc + kc_eff]
                    self._macro_kernel(
                        a_block, b_block, c, ic, jc, mc_eff, nc_eff, kc_eff
                    )
        return c

    def _macro_kernel(
        self, a_block, b_block, c, ic, jc, mc_eff, nc_eff, kc_eff
    ) -> None:
        """Loops L4/L5 + the micro-kernel, with per-chunk kernel selection.

        Each (ir, jr) chunk packs its own micro-panels; chunk heights and
        widths can mix freely (8-row panels followed by a 1-row tail, etc.).
        Panels are zero-padded past the block edge, as in BLIS.
        """
        m_chunks = self.m_chunks(mc_eff)
        n_chunks = self.n_chunks(nc_eff)

        jr = 0
        for nr in n_chunks:  # L4
            bc = pack_b_panels(b_block[:, jr : jr + nr], nr)[0]
            ir = 0
            for mr in m_chunks:  # L5
                kernel = self.kernel_for(mr, nr)
                ac = pack_a_panels(a_block[ir : ir + mr, :], mr)[0]
                tile = load_c_tile(c, ic + ir, jc + jr, mr, nr)
                kernel.proc.interpret(kc_eff, ac, bc, tile)
                unpack_c_tile(c, tile, ic + ir, jc + jr)
                ir += mr
            jr += nr
