"""Address-trace generation for the five-loop GEMM.

This is the independent check on the analytical memory model: walk the
exact access pattern of the BLIS algorithm (packing reads/writes, kernel
panel streams, C tile load/store) for a *small* problem, feed the byte
addresses through the set-associative cache hierarchy, and report per-level
hit statistics plus total memory traffic.

The layout mirrors the functional driver: A and B row-major at fixed bases,
packed panels in their own arenas, C row-major.  Only data accesses are
traced (the model charges no instruction traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from cache_oracle import CacheHierarchy, hierarchy_for

from repro.isa.machine import CARMEL, MachineModel
from repro.sim.memory import GemmShape, TileParams

F32 = 4

# base addresses of the traced arenas, spaced far apart
_A_BASE = 0x0100_0000
_B_BASE = 0x0800_0000
_C_BASE = 0x1000_0000
_PACK_A_BASE = 0x1800_0000
_PACK_B_BASE = 0x2000_0000


@dataclass
class TraceStats:
    """Aggregate results of replaying a GEMM's address trace."""

    accesses: int = 0
    level_hits: List[int] = field(default_factory=list)
    memory_fetch_bytes: int = 0

    def hit_rate(self, level: int) -> float:
        if not self.accesses:
            return 0.0
        return self.level_hits[level] / self.accesses


class GemmTraceSimulator:
    """Replay the five-loop GEMM access pattern through a cache hierarchy."""

    def __init__(
        self,
        shape: GemmShape,
        tiles: TileParams,
        machine: MachineModel = CARMEL,
        dtype_bytes: int = F32,
    ):
        self.shape = shape
        self.tiles = tiles
        self.machine = machine
        self.dt = dtype_bytes
        self.hier: CacheHierarchy = hierarchy_for(machine)
        self.line = machine.caches[0].line_bytes
        self.stats = TraceStats(level_hits=[0] * (len(machine.caches) + 1))

    # -- tracing helpers -----------------------------------------------------

    def _touch(self, addr: int) -> None:
        level = self.hier.access(addr)
        self.stats.accesses += 1
        self.stats.level_hits[level] += 1
        if level == len(self.machine.caches):
            self.stats.memory_fetch_bytes += self.line

    def _touch_range(self, base: int, nbytes: int) -> None:
        first = base // self.line
        last = (base + nbytes - 1) // self.line
        for ln in range(first, last + 1):
            self._touch(ln * self.line)

    # -- the five loops ---------------------------------------------------------

    def run(self) -> TraceStats:
        m, n, k = self.shape.m, self.shape.n, self.shape.k
        t = self.tiles
        lda = k * self.dt
        ldb = n * self.dt
        ldc = n * self.dt

        for jc in range(0, n, t.nc):
            nc_eff = min(t.nc, n - jc)
            for pc in range(0, k, t.kc):
                kc_eff = min(t.kc, k - pc)
                self._pack_b(pc, jc, kc_eff, nc_eff, ldb)
                for ic in range(0, m, t.mc):
                    mc_eff = min(t.mc, m - ic)
                    self._pack_a(ic, pc, mc_eff, kc_eff, lda)
                    self._macro(ic, jc, mc_eff, nc_eff, kc_eff, ldc)
        return self.stats

    def _pack_b(self, pc, jc, kc_eff, nc_eff, ldb):
        """Read B block row by row; write the packed arena sequentially."""
        for kk in range(kc_eff):
            self._touch_range(
                _B_BASE + (pc + kk) * ldb + jc * self.dt, nc_eff * self.dt
            )
        self._write_arena(_PACK_B_BASE, kc_eff * nc_eff * self.dt)

    def _pack_a(self, ic, pc, mc_eff, kc_eff, lda):
        """Read A block row by row; write the packed arena sequentially."""
        for ii in range(mc_eff):
            self._touch_range(
                _A_BASE + (ic + ii) * lda + pc * self.dt, kc_eff * self.dt
            )
        self._write_arena(_PACK_A_BASE, mc_eff * kc_eff * self.dt)

    def _write_arena(self, base, nbytes):
        self._touch_range(base, nbytes)

    def _macro(self, ic, jc, mc_eff, nc_eff, kc_eff, ldc):
        t = self.tiles
        for jr in range(0, nc_eff, t.nr):
            nr_eff = min(t.nr, nc_eff - jr)
            b_panel = _PACK_B_BASE + jr * kc_eff * self.dt
            for ir in range(0, mc_eff, t.mr):
                mr_eff = min(t.mr, mc_eff - ir)
                a_panel = _PACK_A_BASE + ir * kc_eff * self.dt
                # C tile load
                for ii in range(mr_eff):
                    self._touch_range(
                        _C_BASE + (ic + ir + ii) * ldc + (jc + jr) * self.dt,
                        nr_eff * self.dt,
                    )
                # the k-loop streams both packed panels once
                self._touch_range(a_panel, kc_eff * t.mr * self.dt)
                self._touch_range(b_panel, kc_eff * t.nr * self.dt)
                # C tile store
                for ii in range(mr_eff):
                    self._touch_range(
                        _C_BASE + (ic + ir + ii) * ldc + (jc + jr) * self.dt,
                        nr_eff * self.dt,
                    )


def simulate_gemm_trace(
    shape: GemmShape,
    tiles: TileParams,
    machine: MachineModel = CARMEL,
) -> TraceStats:
    """Convenience wrapper: build, run, return the statistics."""
    return GemmTraceSimulator(shape, tiles, machine).run()
