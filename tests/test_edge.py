"""Tests for edge-case decomposition and tile covering."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.targets import ISA_TARGETS, target
from repro.tune.space import candidate_tiles
from repro.ukernel.edge import (
    decompose_extent,
    extent_counts,
    monolithic_cover,
    tile_cover,
    useful_fraction,
)
from repro.ukernel.registry import DEFAULT_FAMILY, registry_for_machine


def vla_sizes(extent, lanes):
    """The row heights a VLA target covers ``extent`` rows with at main
    height ``lanes``: full lanes plus the extent's own remainder."""
    return {h for h, _ in target("rvv128").cover_family(extent, 1, lanes, 1)}


def vla_tile_cover(m, n, mr, nr):
    """The (m, n) cover of a VLA target at main tile (mr, nr)."""
    return tile_cover(m, n, target("rvv128").cover_family(m, n, mr, nr))


class TestDecompose:
    def test_exact_fit(self):
        assert decompose_extent(24, [8, 4, 1]) == [8, 8, 8]

    def test_mixed_chunks(self):
        assert decompose_extent(49, [8, 4, 1]) == [8] * 6 + [1]

    def test_ragged_pads_smallest(self):
        # 7 = 4 + 2 leftover -> one 4, then padding chunk of 4... with sizes
        # [8, 4]: 7 -> [4] + remainder 3 -> padded [4]
        assert decompose_extent(7, [8, 4]) == [4, 4]

    def test_single_size(self):
        assert decompose_extent(10, [4]) == [4, 4, 4]

    def test_invalid_extent(self):
        with pytest.raises(ValueError):
            decompose_extent(0, [4])

    @given(st.integers(1, 200))
    @settings(max_examples=50)
    def test_cover_is_sufficient_and_tight(self, extent):
        chunks = decompose_extent(extent, [8, 4, 1])
        assert sum(chunks) >= extent
        # with a size-1 chunk available the cover is exact
        assert sum(chunks) == extent

    @given(st.integers(1, 200))
    @settings(max_examples=50)
    def test_cover_padding_bounded(self, extent):
        chunks = decompose_extent(extent, [8, 4])
        assert 0 <= sum(chunks) - extent < 4


class TestTileCover:
    def test_resnet_49x512(self):
        cover = tile_cover(49, 512, DEFAULT_FAMILY)
        # 49 -> 6x8 + 1x1 rows; 512 -> 42x12 + 1x8 columns
        assert cover[(8, 12)] == 6 * 42
        assert cover[(8, 8)] == 6
        assert cover[(1, 12)] == 42
        assert cover[(1, 8)] == 1
        total = sum((mr * nr) * c for (mr, nr), c in cover.items())
        assert total == 49 * 512

    def test_exact_shape_single_class(self):
        cover = tile_cover(16, 24, DEFAULT_FAMILY)
        assert cover == {(8, 12): 4}

    def test_missing_combination_raises(self):
        # m=9 -> rows of 8 and 1; n=20 -> widths 12 and 8; the (8, 8)
        # combination is absent from this family
        with pytest.raises(KeyError, match="family"):
            tile_cover(9, 20, [(8, 12), (1, 12), (1, 8)])

    @given(st.integers(1, 300), st.integers(1, 300))
    @settings(max_examples=40)
    def test_cover_area_exact_up_to_width_padding(self, m, n):
        cover = tile_cover(m, n, DEFAULT_FAMILY)
        area = sum(mr * nr * c for (mr, nr), c in cover.items())
        # rows decompose exactly (1-row tails exist); the width remainder
        # is padded by at most one 4-wide column of tiles
        assert m * n <= area < m * (n + 4)


class TestVlaDecompose:
    """Predicated tails on vector-length-agnostic ISAs: exact covers."""

    def test_exact_fit(self):
        assert decompose_extent(16, vla_sizes(16, 4)) == [4, 4, 4, 4]

    def test_ragged_tail_not_padded(self):
        assert decompose_extent(7, vla_sizes(7, 4)) == [4, 3]
        assert decompose_extent(3, vla_sizes(3, 4)) == [3]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            decompose_extent(0, [4])
        with pytest.raises(ValueError):
            vla_tile_cover(0, 4, 8, 12)
        with pytest.raises(ValueError):
            decompose_extent(7, [0])
        with pytest.raises(ValueError):
            tile_cover(7, 4, [(0, 4)])

    @given(st.integers(1, 500), st.integers(1, 16))
    @settings(max_examples=60)
    def test_cover_always_exact(self, extent, lanes):
        chunks = decompose_extent(extent, vla_sizes(extent, lanes))
        assert sum(chunks) == extent
        assert all(0 < c <= lanes for c in chunks)
        # at most one reduced-vl tail, and it comes last
        short = [c for c in chunks if c < lanes]
        assert len(short) <= 1
        if short:
            assert chunks[-1] == short[0]


class TestVlaTileCover:
    def test_exact_area_no_family_constraint(self):
        cover = vla_tile_cover(49, 500, 8, 12)
        area = sum(h * w * c for (h, w), c in cover.items())
        assert area == 49 * 500
        # the ragged classes exist without being family members
        assert (1, 12) in cover and (8, 8) in cover

    def test_lane_multiple_plane_single_class(self):
        assert vla_tile_cover(16, 24, 8, 12) == {(8, 12): 4}

    @given(st.integers(1, 300), st.integers(1, 300))
    @settings(max_examples=40)
    def test_area_exact_everywhere(self, m, n):
        cover = vla_tile_cover(m, n, 8, 12)
        area = sum(h * w * c for (h, w), c in cover.items())
        assert area == m * n

    def test_tail_classes_runnable(self):
        """Every cover class is generable: lane-multiple heights directly,
        ragged heights as a full-width part plus a vsetvl tail part."""
        t = target("rvv128")
        for h, w in tile_cover(11, 14, t.cover_family(11, 14, 8, 12)):
            assert sum(k.mr for _, k in t.tile_parts(h, w)) == h


#: planes whose covers reach every kind of tile: lane multiples, ragged
#: heights and widths, and planes smaller than every family tile
TARGET_PLANES = ((49, 500), (11, 14), (6, 50), (3, 2), (100, 2), (13, 20))


@pytest.mark.parametrize("isa", sorted(ISA_TARGETS))
def test_target_cover_parts_tile_rows(isa):
    """Each (h, w) of a target's cover runs as parts that tile rows
    [0, h) contiguously from 0; on packed SIMD that is exactly one
    part, the registry kernel."""
    t = target(isa)
    registry = registry_for_machine(t.machine)
    for m, n in TARGET_PLANES:
        for mr, nr in candidate_tiles(t, m, n):
            for h, w in tile_cover(m, n, t.cover_family(m, n, mr, nr)):
                parts = t.tile_parts(h, w)
                offset = 0
                for row, kernel in parts:
                    assert row == offset
                    assert kernel.nr == w
                    offset += kernel.mr
                assert offset == h
                if not t.vla:
                    assert len(parts) == 1
                    assert parts[0][1] is registry.get(h, w)


SIZES = st.sets(st.integers(1, 16), min_size=1, max_size=4)


def greedy_chunks(extent, sizes):
    """The chunk-list greedy cover the counting code replaced."""
    ordered = sorted(set(sizes), reverse=True)
    chunks = []
    left = extent
    for size in ordered:
        count, left = divmod(left, size)
        chunks.extend([size] * count)
    if left:
        chunks.append(ordered[-1])
    return chunks


def vla_chunks(extent, lanes):
    """The chunk-list VLA cover the counting code replaced."""
    chunks = [lanes] * (extent // lanes)
    if extent % lanes:
        chunks.append(extent % lanes)
    return chunks


def counter_cover(m_chunks, n_chunks):
    m_counts, n_counts = Counter(m_chunks), Counter(n_chunks)
    return [
        ((h, w), mc * nc)
        for h, mc in m_counts.items()
        for w, nc in n_counts.items()
    ]


class TestCountsMatchChunkLists:
    """The covers count chunks by ``divmod``; these pin the counts, and
    their key order (callers iterate the covers), to the ``Counter`` of
    the chunk lists they used to build."""

    @given(st.integers(1, 400), SIZES)
    @settings(max_examples=80)
    def test_extent_counts(self, extent, sizes):
        counts = extent_counts(extent, sizes)
        expected = Counter(greedy_chunks(extent, sizes))
        assert list(counts.items()) == list(expected.items())
        assert decompose_extent(extent, sizes) == greedy_chunks(extent, sizes)

    def test_padded_remainder_lands_on_an_existing_size(self):
        # 13 over [8, 4]: an 8, a 4, and the ragged 1 pads a second 4
        assert list(extent_counts(13, [8, 4]).items()) == [(8, 1), (4, 2)]
        # 3 over [8, 4]: no full chunk, the ragged 3 pads a lone 4
        assert list(extent_counts(3, [8, 4]).items()) == [(4, 1)]

    @given(st.integers(1, 400), st.integers(1, 16))
    @settings(max_examples=60)
    def test_vla_extent_counts(self, extent, lanes):
        sizes = vla_sizes(extent, lanes)
        counts = extent_counts(extent, sizes)
        expected = Counter(vla_chunks(extent, lanes))
        assert list(counts.items()) == list(expected.items())
        assert decompose_extent(extent, sizes) == vla_chunks(extent, lanes)

    @given(st.integers(1, 300), st.integers(1, 300), SIZES, SIZES)
    @settings(max_examples=60)
    def test_tile_cover(self, m, n, heights, widths):
        family = [(h, w) for h in heights for w in widths]
        expected = counter_cover(
            greedy_chunks(m, heights), greedy_chunks(n, widths)
        )
        assert list(tile_cover(m, n, family).items()) == expected

    @given(
        st.integers(1, 300),
        st.integers(1, 300),
        st.integers(1, 16),
        st.integers(1, 16),
    )
    @settings(max_examples=60)
    def test_vla_tile_cover(self, m, n, mr, nr):
        expected = counter_cover(vla_chunks(m, mr), vla_chunks(n, nr))
        assert list(vla_tile_cover(m, n, mr, nr).items()) == expected


class TestMonolithic:
    def test_cover_counts(self):
        assert monolithic_cover(49, 512, 8, 12) == 7 * 43

    def test_useful_fraction(self):
        assert useful_fraction(8, 12, 8, 12) == 1.0
        assert useful_fraction(4, 4, 8, 12) == pytest.approx(16 / 96)

    @given(st.integers(1, 100), st.integers(1, 100))
    @settings(max_examples=40)
    def test_useful_fraction_bounds(self, m, n):
        frac = useful_fraction(m, n, 8, 12)
        assert 0 < frac <= 1.0
