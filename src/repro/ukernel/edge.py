"""Edge-case decomposition: covering a GEMM's (m, n) plane with a family.

The paper's edge-case strategy (Section III-B, evaluated in Figure 15):
instead of one monolithic kernel masked over partial tiles, generate a
small family and cover the plane exactly — full 8-row panels, then 4-row,
then 1-row tails; 12-wide columns, then 8 and 4.

:func:`extent_counts` counts the chunks of each size that cover one
extent (:func:`decompose_extent` lists them); :func:`tile_cover` counts
every (mr, nr) tile class a shape needs, which both the GEMM driver and
the timing model consume.  The sizes decide whether a ragged tail pads:
a vector-length-agnostic target passes the main tile plus the extent's
own remainder, so its cover is exact (see
:meth:`repro.isa.targets.IsaTarget.cover_family`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def extent_counts(extent: int, sizes: Sequence[int]) -> Dict[int, int]:
    """Greedy cover of ``extent`` by chunk sizes, as a count per size.

    Keys run largest size first.  A ragged remainder smaller than every
    size adds one padded chunk of the smallest size, mirroring the
    zero-padded packing buffers of BLIS.
    """
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    ordered = sorted(set(sizes), reverse=True)
    if not ordered or ordered[-1] <= 0:
        raise ValueError(f"chunk sizes must be positive, got {sizes}")
    counts: Dict[int, int] = {}
    left = extent
    for size in ordered:
        count, left = divmod(left, size)
        if count:
            counts[size] = count
    if left:
        counts[ordered[-1]] = counts.get(ordered[-1], 0) + 1
    return counts


def decompose_extent(extent: int, sizes: Sequence[int]) -> List[int]:
    """The chunks of :func:`extent_counts`, largest first."""
    return [
        size
        for size, count in extent_counts(extent, sizes).items()
        for _ in range(count)
    ]


def tile_cover(
    m: int,
    n: int,
    family: Sequence[Tuple[int, int]],
) -> Dict[Tuple[int, int], int]:
    """Count the micro-tiles of each family shape covering an (m, n) plane.

    Row heights and column widths decompose independently; a tile class
    (mr, nr) must exist in the family for every (height, width) pair that
    the decomposition produces — the family is validated up front.
    """
    shapes = set(family)
    m_chunks = extent_counts(m, [s[0] for s in shapes])
    n_chunks = extent_counts(n, [s[1] for s in shapes])
    cover: Dict[Tuple[int, int], int] = {}
    for mr, mcount in m_chunks.items():
        for nr, ncount in n_chunks.items():
            if (mr, nr) not in shapes:
                raise KeyError(
                    f"decomposition needs a {mr}x{nr} kernel but the family "
                    f"only provides {sorted(shapes)}"
                )
            cover[(mr, nr)] = mcount * ncount
    return cover


def monolithic_cover(m: int, n: int, mr: int, nr: int) -> int:
    """Tiles a single (mr, nr) kernel needs to cover the plane (padded)."""
    return math.ceil(m / mr) * math.ceil(n / nr)


def useful_fraction(m: int, n: int, mr: int, nr: int) -> float:
    """Fraction of a monolithic kernel's flops that are useful work."""
    total = monolithic_cover(m, n, mr, nr) * mr * nr
    return (m * n) / total
