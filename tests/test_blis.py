"""Tests for the BLIS substrate: tile parameters, packing, the GEMM driver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blis.gemm import BlisGemm
from repro.blis.packing import (
    load_c_tile,
    pack_a_panels,
    pack_b_panels,
    unpack_c_tile,
)
from repro.blis.params import analytical_tile_params, clamp_tiles
from repro.blis.reference import naive_gemm
from repro.isa.machine import CARMEL
from repro.isa.targets import ISA_TARGETS, target
from repro.sim.memory import TileParams


class TestAnalyticalParams:
    def test_carmel_kc_is_512(self):
        """The paper: BLIS packs with kc = 512 on this ARM architecture."""
        tiles = analytical_tile_params(8, 12, CARMEL)
        assert tiles.kc == 512

    def test_mc_multiple_of_mr(self):
        tiles = analytical_tile_params(8, 12, CARMEL)
        assert tiles.mc % 8 == 0
        assert tiles.nc % 12 == 0

    def test_blocks_fit_their_cache_levels(self):
        tiles = analytical_tile_params(8, 12, CARMEL)
        assert tiles.mc * tiles.kc * 4 <= CARMEL.cache("L2").size_bytes
        assert tiles.kc * tiles.nc * 4 <= CARMEL.cache("L3").size_bytes

    def test_wider_kernel_smaller_kc(self):
        wide = analytical_tile_params(8, 24, CARMEL)
        narrow = analytical_tile_params(8, 12, CARMEL)
        assert wide.kc <= narrow.kc

    def test_clamp_tiles(self):
        tiles = analytical_tile_params(8, 12, CARMEL)
        clamped = clamp_tiles(tiles, 100, 64, 147)
        assert clamped.kc == 147
        assert clamped.mc == 100
        assert clamped.nc == 64

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            analytical_tile_params(0, 12)


class TestPacking:
    def test_pack_a_layout(self):
        a = np.arange(24, dtype=np.float32).reshape(6, 4)  # mc=6, kc=4
        panels = pack_a_panels(a, mr=4)
        assert panels.shape == (2, 4, 4)
        # panel 0, k-slice i holds A[0:4, i]
        np.testing.assert_array_equal(panels[0, 2], a[0:4, 2])
        # ragged second panel zero-padded
        np.testing.assert_array_equal(panels[1, 0, 2:], 0)

    def test_pack_b_layout(self):
        b = np.arange(24, dtype=np.float32).reshape(4, 6)  # kc=4, nc=6
        panels = pack_b_panels(b, nr=4)
        assert panels.shape == (2, 4, 4)
        np.testing.assert_array_equal(panels[0][:, 1], b[:, 1])
        np.testing.assert_array_equal(panels[1][:, 2:], 0)

    def test_c_tile_roundtrip(self):
        c = np.arange(30, dtype=np.float32).reshape(5, 6)
        tile = load_c_tile(c, 1, 2, mr=3, nr=4)
        assert tile.shape == (4, 3)
        c2 = c.copy()
        unpack_c_tile(c2, tile, 1, 2)
        np.testing.assert_array_equal(c, c2)

    def test_c_tile_edge_padding(self):
        c = np.ones((5, 5), dtype=np.float32)
        tile = load_c_tile(c, 4, 4, mr=4, nr=4)
        assert tile[0, 0] == 1.0
        np.testing.assert_array_equal(tile[1:, :], 0)
        np.testing.assert_array_equal(tile[:, 1:], 0)

    @given(
        st.integers(1, 12),
        st.integers(1, 9),
        st.sampled_from([4, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_pack_a_preserves_values(self, mc, kc, mr):
        rng = np.random.default_rng(mc * 100 + kc)
        a = rng.random((mc, kc), dtype=np.float32)
        panels = pack_a_panels(a, mr)
        for q in range(panels.shape[0]):
            rows = min(mr, mc - q * mr)
            np.testing.assert_array_equal(
                panels[q, :, :rows], a[q * mr : q * mr + rows, :].T
            )


class TestBlisGemmDriver:
    @pytest.fixture(scope="class")
    def engine(self, registry):
        shapes = (
            (8, 12), (8, 8), (8, 4), (4, 12), (4, 8), (4, 4), (1, 12), (1, 8), (1, 4)
        )
        kernels = {s: registry.get(*s) for s in shapes}
        # tiny tiles so small tests exercise all five loops
        return BlisGemm(kernels, tiles=TileParams(mc=16, kc=8, nc=24, mr=8, nr=12))

    def _check(self, engine, m, n, k, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.random((m, k), dtype=np.float32)
        b = rng.random((k, n), dtype=np.float32)
        c = rng.random((m, n), dtype=np.float32)
        expected = naive_gemm(a, b, c.copy())
        engine(a, b, c)
        np.testing.assert_allclose(c, expected, rtol=1e-4, atol=1e-4)

    def test_exact_tile_multiple(self, engine):
        self._check(engine, 16, 24, 8)

    def test_multiple_cache_blocks(self, engine):
        self._check(engine, 32, 48, 20)

    def test_ragged_everything(self, engine):
        self._check(engine, 49, 26, 13)

    def test_single_row(self, engine):
        self._check(engine, 1, 12, 5)

    def test_tall_skinny(self, engine):
        self._check(engine, 40, 4, 7)

    def test_short_wide(self, engine):
        self._check(engine, 4, 50, 9)

    @given(
        st.integers(1, 30),
        st.integers(1, 30),
        st.integers(1, 12),
    )
    @settings(max_examples=15, deadline=None)
    def test_any_shape(self, engine, m, n, k):
        self._check(engine, m, n, k, seed=m * 1000 + n * 10 + k)

    def test_m_chunks_prefer_large_kernels(self, engine):
        assert engine.m_chunks(49) == [8] * 6 + [1]
        assert engine.m_chunks(8) == [8]
        assert engine.m_chunks(3) == [1, 1, 1]

    def test_n_chunks(self, engine):
        assert engine.n_chunks(64) == [12, 12, 12, 12, 12, 4]
        assert engine.n_chunks(12) == [12]

    def test_monolithic_kernel_pads_edges(self, registry):
        """With only the 8x12 kernel available, ragged shapes still compute
        correctly through zero-padded tiles (the BLIS monolithic strategy)."""
        engine = BlisGemm({(8, 12): registry.get(8, 12)})
        rng = np.random.default_rng(5)
        a = rng.random((9, 4), dtype=np.float32)
        b = rng.random((4, 13), dtype=np.float32)
        c = rng.random((9, 13), dtype=np.float32)
        expected = naive_gemm(a, b, c.copy())
        engine(a, b, c)
        np.testing.assert_allclose(c, expected, rtol=1e-4, atol=1e-4)

    def test_shape_mismatch_rejected(self, engine):
        with pytest.raises(ValueError, match="mismatch"):
            engine(
                np.ones((4, 5), dtype=np.float32),
                np.ones((6, 7), dtype=np.float32),
                np.zeros((4, 7), dtype=np.float32),
            )


def _assert_greedy_cover(chunks, extent, sizes):
    """``chunks`` takes the largest size that fits what is left, and one
    padded tile of the smallest size over a ragged edge."""
    left = extent
    for chunk in chunks[:-1]:
        assert chunk == max(s for s in sizes if s <= left)
        left -= chunk
    fitting = [s for s in sizes if s <= left]
    assert chunks[-1] == (max(fitting) if fitting else min(sizes))
    assert sum(chunks) - extent < min(sizes)


@pytest.mark.parametrize("isa", sorted(ISA_TARGETS))
def test_chunks_are_a_greedy_cover_of_the_family(isa):
    t = target(isa)
    engine = BlisGemm({s: t.get(*s) for s in t.family})
    heights = {mr for mr, _ in t.family}
    widths = {nr for _, nr in t.family}
    for extent in range(1, 400):
        _assert_greedy_cover(engine.m_chunks(extent), extent, heights)
        _assert_greedy_cover(engine.n_chunks(extent), extent, widths)
