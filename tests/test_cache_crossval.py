"""Cross-validation: analytical memory claims vs the trace-driven simulator.

The full-GEMM timing model is analytical; these tests replay the actual
address streams of the BLIS loop structure through the set-associative
cache simulator on miniature problems and confirm the residency claims the
analytical model is built on:

* a packed B micro-panel streamed per micro-kernel call stays L1-resident
  across the kc loop;
* the packed Ac block survives in an L2-sized cache across jr sweeps;
* the C tile misses on first touch per pc pass (the traffic the prefetch
  mechanism hides);
* packing converts a strided column walk into unit-stride streams.
"""

from __future__ import annotations


import pytest

from cache_oracle import Cache

F32 = 4
LINE = 64


def touch_range(cache: Cache, base: int, nbytes: int) -> None:
    cache.access_range(base, nbytes)


class TestPanelResidency:
    def test_b_panel_l1_resident_across_k(self):
        """Br (kc x nr) = 512*12*4 = 24 KiB fits a 64 KiB L1: after the
        first pass every revisit hits."""
        l1 = Cache(64 * 1024, LINE, 4)
        kc, nr = 512, 12
        panel_base = 1 << 20
        # first micro-kernel call: one pass over the panel
        for k in range(kc):
            touch_range(l1, panel_base + k * nr * F32, nr * F32)
        l1.reset_stats()
        # subsequent calls in the jr loop reuse the same panel
        for k in range(kc):
            touch_range(l1, panel_base + k * nr * F32, nr * F32)
        assert l1.stats.hit_rate > 0.99

    def test_ac_block_l2_resident(self):
        """Ac (mc x kc) sized to the analytical model's mc stays resident
        in an L2-scale cache across repeated panel sweeps."""
        l2 = Cache(2 * 1024 * 1024, LINE, 16)
        mc, kc, mr = 896, 512, 8
        base = 1 << 22
        panel_bytes = kc * mr * F32
        n_panels = mc // mr
        for sweep in range(2):
            for panel in range(n_panels):
                touch_range(l2, base + panel * panel_bytes, panel_bytes)
        # second sweep should be nearly all hits
        total = 2 * n_panels * (panel_bytes // LINE)
        assert l2.stats.hits > 0.45 * total

    def test_c_tile_misses_once_per_pass(self):
        """C tiles are cold per pc pass: every tile's lines miss first touch."""
        l1 = Cache(64 * 1024, LINE, 4)
        m, n, mr, nr = 64, 48, 8, 12
        ldc = n * F32
        c_base = 1 << 24
        misses = 0
        for i0 in range(0, m, mr):
            for j0 in range(0, n, nr):
                for i in range(mr):
                    misses += l1.access_range(
                        c_base + (i0 + i) * ldc + j0 * F32, nr * F32
                    )
        # analytical expectation: every C line fetched exactly once
        expected = m * n * F32 // LINE
        assert misses == pytest.approx(expected, rel=0.25)

    def test_packing_removes_strided_misses(self):
        """The unpacked A column walk misses per element at large ldb;
        after packing, the same data streams at ~1 miss per line."""
        ld = 4096 * F32
        unpacked = Cache(32 * 1024, LINE, 4)
        for k in range(256):
            unpacked.access(k * ld)  # walking one column of A
        packed = Cache(32 * 1024, LINE, 4)
        for k in range(256):
            packed.access(k * F32)  # the packed panel: unit stride
        assert unpacked.stats.hit_rate < 0.05
        assert packed.stats.hit_rate > 0.9


class TestAgainstAnalyticalTraffic:
    def test_pack_traffic_matches_formula(self):
        """Trace the packing reads of a small GEMM and compare with the
        analytical model's A-repacking rule (m*k per jc iteration)."""
        from parallel_oracle import memory_cost

        from repro.sim.memory import GemmShape, TileParams

        m, n, k = 32, 48, 16
        tiles = TileParams(mc=16, kc=8, nc=24, mr=8, nr=12)
        cost = memory_cost(GemmShape(m, n, k), tiles)
        jc_iters = -(-n // tiles.nc)
        expected_a_bytes = 2 * m * k * F32 * jc_iters
        copy_rate = 2.0 * 2 * F32
        assert cost.pack_a_cycles == pytest.approx(
            expected_a_bytes / copy_rate
        )

    def test_dram_bytes_counts_all_streams(self):
        from parallel_oracle import memory_cost

        from repro.sim.memory import GemmShape, TileParams

        m = n = k = 64
        tiles = TileParams(mc=64, kc=64, nc=64, mr=8, nr=12)
        cost = memory_cost(GemmShape(m, n, k), tiles)
        # one jc iteration, one pc pass: A + B read once, C in+out once
        expected = (m * k + k * n + 2 * m * n) * F32
        assert cost.dram_bytes == pytest.approx(expected)
