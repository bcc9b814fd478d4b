"""Search-space enumeration for the autotuner.

The paper's point (Section IV-B) is that generation is cheap enough that
optimization "boils down to evaluating a number of generated
micro-kernels".  This module makes that candidate space explicit: the
cross product of (machine x register-tile family x GEMM shape set)
expands into a flat, deterministic list of :class:`TuneJob` units that
the executor evaluates and the cache keys.

Two details make the space ISA-aware rather than a plain cross product:

* candidate tiles are bounded by the problem plane — an (8, 12) tile is
  never proposed for a 4-row GEMM — and
* VLA targets (RVV) additionally propose *tail variants*: family tiles
  clamped to the problem bounds, runnable only because ``vsetvl``
  narrows the active vector length (a (6, 12) main tile on a 6-row
  problem runs as a 4-row body part plus a 2-row reduced-``vsetvl``
  tail part).

:func:`enumerate_tiles` and :func:`fallback_tile` are also the
enumeration used by ``repro.ukernel.registry.select_kernel_for``, so the
serial selection path and the parallel tuner rank exactly the same
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

from repro.isa.targets import ISA_TARGETS, IsaTarget, target

Problem = Tuple[int, int, int]
Tile = Tuple[int, int]


@dataclass(frozen=True)
class TuneJob:
    """One candidate evaluation: a main tile on a GEMM shape of one ISA,
    executed on ``threads`` cores (1 = the serial model)."""

    isa: str
    mr: int
    nr: int
    m: int
    n: int
    k: int
    threads: int = 1

    @property
    def tile(self) -> Tile:
        return (self.mr, self.nr)

    @property
    def problem(self) -> Problem:
        return (self.m, self.n, self.k)


def rank_key(total_cycles: float, tile: Tile):
    """The single ranking order of the tuner: fastest modelled time,
    ties to the smallest tile area, then lexicographic.

    Both :func:`repro.tune.sweep` and
    ``repro.ukernel.registry.select_kernel_for`` rank with this key, so
    the parallel and serial paths agree on a winner by construction —
    edit the order here and both move together.
    """
    return (total_cycles, tile[0] * tile[1], tile)


def enumerate_tiles(t: IsaTarget, m: int, n: int) -> Tuple[Tile, ...]:
    """Candidate main tiles of a target's family for an (m, n) plane.

    Family tiles that fit the plane are kept; on a VLA target every
    family tile additionally contributes its clamped tail variant
    ``(min(mr, m), min(nr, n))`` when that differs from the tile itself.
    The result is deterministically ordered: largest area first, ties
    lexicographic.
    """
    tiles: List[Tile] = [s for s in t.family if s[0] <= m and s[1] <= n]
    if t.vla:
        for mr, nr in t.family:
            clamped = (min(mr, m), min(nr, n))
            if clamped not in tiles:
                tiles.append(clamped)
    return tuple(sorted(set(tiles), key=lambda s: (-s[0] * s[1], s)))


def fallback_tile(t: IsaTarget, m: int, n: int) -> Tile:
    """The shape-respecting last resort when no family tile fits.

    On a VLA target the plane itself bounds the tile — any height and
    width run exactly via the reduced-``vsetvl`` path.  On a packed-SIMD
    target the height clamps to the tallest family height that fits
    (there is always a 1-row kernel) and the width to the widest fitting
    family width, padding up to the narrowest width when the plane is
    narrower than every kernel (the zero-padded packing buffer of BLIS).
    """
    heights = sorted({s[0] for s in t.family})
    widths = sorted({s[1] for s in t.family})
    if t.vla:
        return (min(m, heights[-1]), min(n, widths[-1]))
    mr = max((h for h in heights if h <= m), default=heights[0])
    nr = max((w for w in widths if w <= n), default=widths[0])
    return (mr, nr)


def candidate_tiles(t: IsaTarget, m: int, n: int) -> Tuple[Tile, ...]:
    """Tiles to rank for one problem: the enumeration, or the fallback."""
    return enumerate_tiles(t, m, n) or (fallback_tile(t, m, n),)


def jobs_for_machine(
    isa: str,
    problems: Iterable[Problem],
    threads: Sequence[int] = (1,),
) -> List[TuneJob]:
    """Expand one ISA's family over a problem set, in deterministic order.

    ``threads`` is the enumeration's third axis: every candidate tile is
    proposed at every thread count — the tuned winner for one (machine,
    problem) can differ between the serial and threaded executions, so
    each count ranks independently.
    """
    t = target(isa)
    jobs: List[TuneJob] = []
    for m, n, k in problems:
        for nthreads in threads:
            for mr, nr in candidate_tiles(t, m, n):
                jobs.append(
                    TuneJob(
                        isa=t.name,
                        mr=mr,
                        nr=nr,
                        m=m,
                        n=n,
                        k=k,
                        threads=nthreads,
                    )
                )
    return jobs


def resolve_isas(isas: Iterable[str]) -> List[str]:
    """Expand ``"all"`` and validate names against the target registry,
    preserving caller order after deduplication."""
    names: List[str] = []
    for isa in isas:
        if isa == "all":
            names.extend(sorted(ISA_TARGETS))
        else:
            names.append(target(isa).name)
    return list(dict.fromkeys(names))


def enumerate_space(
    isas: Iterable[str],
    problems: Iterable[Problem],
    threads: Sequence[int] = (1,),
) -> List[TuneJob]:
    """The full search space: every machine's candidates for every
    problem at every thread count.

    ``isas`` may be target names or ``"all"``; order is preserved (after
    deduplication) so the job list — and therefore the executor's result
    ordering — is reproducible run to run.
    """
    names = resolve_isas(isas)
    problems = [tuple(p) for p in problems]
    threads = parse_threads(threads)
    jobs: List[TuneJob] = []
    for name in names:
        jobs.extend(jobs_for_machine(name, problems, threads=threads))
    return jobs


def parse_threads(spec: Union[str, Iterable[int]]) -> Tuple[int, ...]:
    """Normalize a thread-count axis: ``"1,2,4,8"`` or an int iterable.

    Deduplicates preserving order and rejects non-positive counts, so
    the job list (and the artifact's key set) is deterministic.
    """
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.split(",") if p.strip()]
        try:
            counts = [int(p) for p in parts]
        except ValueError:
            raise ValueError(
                f"bad thread list {spec!r}: expected e.g. 1,2,4,8"
            ) from None
    else:
        counts = [int(t) for t in spec]
    if not counts:
        raise ValueError("thread list must not be empty")
    for t in counts:
        if t < 1:
            raise ValueError(f"thread counts must be >= 1, got {t}")
    return tuple(dict.fromkeys(counts))


#: the square sweep evaluated by ``python -m repro.eval --isa ...``
DEFAULT_SQUARES: Tuple[Problem, ...] = (
    (256, 256, 256),
    (512, 512, 512),
    (1024, 1024, 1024),
    (2048, 2048, 2048),
)


def problem_set(spec: str) -> Tuple[Problem, ...]:
    """Parse a ``--shapes`` spec into a problem tuple.

    ``square`` is the default square sweep, ``dnn`` the unique ResNet50 +
    VGG16 layer shapes (Tables I/II), ``all`` their union; anything else
    is a comma-separated list of explicit ``MxNxK`` shapes.
    """
    spec = spec.lower()
    if spec == "square":
        return DEFAULT_SQUARES
    if spec in ("dnn", "all"):
        from repro.workloads.resnet50 import RESNET50_LAYERS
        from repro.workloads.vgg16 import VGG16_LAYERS

        layers = [*RESNET50_LAYERS, *VGG16_LAYERS]
        dnn = tuple(
            dict.fromkeys((layer.m, layer.n, layer.k) for layer in layers)
        )
        return DEFAULT_SQUARES + dnn if spec == "all" else dnn
    problems = []
    for part in spec.split(","):
        dims = part.strip().split("x")
        if len(dims) != 3:
            raise ValueError(
                f"bad shape {part!r}: expected MxNxK, e.g. 256x256x256"
            )
        problems.append(tuple(int(d) for d in dims))
    return tuple(problems)
