"""The ISA target registry: the backend plug-in contract.

The paper's portability claim (Section III-C) is that retargeting the
generator is *only* a matter of supplying a machine/instruction
description.  This module makes that contract explicit: an
:class:`IsaTarget` bundles everything the rest of the system needs to run
on one ISA —

* the instruction **library** dict (Figure-3-style ``@instr`` procedures
  plus ``lanes`` / ``memory`` / ``dtype`` metadata), loaded lazily so that
  selecting one backend never imports the others' modules,
* the **machine** model (pipes, latencies, caches) for the simulators,
* the register-tile **family** evaluated by kernel selection, derived
  from the vector length so every family shape is generable,
* for VLA ISAs, a **lib_factory** mapping an active vector length to a
  narrowed library (the ``vsetvl`` tail path), and
* the **part rule** that turns a plane into tiles and a tile into
  generated kernels (:meth:`IsaTarget.cover_family`,
  :meth:`IsaTarget.tile_parts`): padded on packed SIMD, exact on a
  target with a ``lib_factory``.

``repro.ukernel.registry`` and ``repro.eval`` resolve targets through
this table instead of importing any ISA module directly, so adding a
backend (see ``docs/backends.md``) never touches them.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .machine import (
    AVX512_SERVER,
    CARMEL,
    MachineModel,
    NUMA_SERVER_2S,
    RVV_EDGE_VLEN128,
    RVV_SERVER_VLEN256,
)

if TYPE_CHECKING:
    from repro.ukernel.generator import GeneratedKernel

#: one kernel of a tile and the first tile row it computes
Part = Tuple[int, "GeneratedKernel"]

__all__ = [
    "IsaTarget",
    "ISA_TARGETS",
    "family_for_lanes",
    "machine_fingerprint",
    "register_isa_target",
    "target",
    "target_for_machine",
]


@functools.lru_cache(maxsize=None)
def machine_fingerprint(machine: MachineModel) -> str:
    """A short stable digest of a machine model's full parameter set.

    ``MachineModel`` is a frozen dataclass of plain numbers and tuples,
    so its ``repr`` is a deterministic serialization of every modelled
    parameter (pipes, latencies, cache geometry, ...).  The persistent
    tune cache folds this digest into every key, so editing any
    machine parameter automatically invalidates the timings modelled
    under the old description.  Memoized per (hashable, equal-by-value)
    machine: the tuner builds one key per candidate.
    """
    return hashlib.sha256(repr(machine).encode()).hexdigest()[:12]


def _tile_registers(mr: int, nr: int, lanes: int) -> int:
    """Vector registers an (mr, nr) tile needs: the C accumulators plus
    one register per A row-group and per B column-group (the paper's
    8x12 Neon budget: 24 + 2 + 3 = 29 of 32)."""
    rows = max(1, mr // lanes)
    return nr * rows + rows + max(1, nr // lanes)


def family_for_lanes(
    lanes: int, vector_registers: int = 32
) -> Tuple[Tuple[int, int], ...]:
    """The register-tile family for a vector length, closed under
    height x width combination so any (m, n) plane decomposes.

    Candidate heights are {2*lanes, lanes, 1} and widths
    {3*lanes, 2*lanes, lanes}; the tallest height, then the widest
    width, are dropped until the largest tile of the grid fits the
    architectural register file — wide ISAs cannot afford the full
    grid (on 8 lanes a (16, 24) C tile alone is 48 registers).

    For lanes=4 nothing is dropped and this reproduces the paper's
    Figure 13/15 family exactly ((8, 12) main tile, 29 of 32
    registers, down to the 1-row kernels).
    """
    heights = [2 * lanes, lanes, 1]
    widths = [3 * lanes, 2 * lanes, lanes]
    while _tile_registers(heights[0], widths[0], lanes) > vector_registers:
        if len(heights) > 2:
            heights.pop(0)
        elif len(widths) > 1:
            widths.pop(0)
        else:
            break
    return tuple((h, w) for h in heights for w in widths)


@dataclass(eq=False)
class IsaTarget:
    """One retargeting of the pipeline: library + machine + tile family.

    Exactly one loader is given, deferred until first use: ``load_lib``
    returns a packed-SIMD library dict; ``load_factory`` returns a VLA
    target's AVL -> library closure, whose full-width library
    (``factory(None)``) is the target's :attr:`lib`.
    """

    name: str
    machine: MachineModel
    family: Tuple[Tuple[int, int], ...]
    load_lib: Optional[Callable[[], dict]] = None
    load_factory: Optional[Callable[[], Callable]] = None
    _lib: Optional[dict] = field(default=None, repr=False)
    _factory: Optional[Callable] = field(default=None, repr=False)
    #: (h, w) -> the tile's parts; see :meth:`tile_parts`
    _parts: Dict[Tuple[int, int], List[Part]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self):
        if (self.load_lib is None) == (self.load_factory is None):
            raise ValueError(
                f"target {self.name!r} needs exactly one of load_lib "
                "and load_factory"
            )

    @property
    def lib(self) -> dict:
        if self._lib is None:
            self._lib = self.lib_factory(None) if self.vla else self.load_lib()
        return self._lib

    @property
    def lib_factory(self) -> Optional[Callable[[Optional[int]], dict]]:
        """AVL -> library closure for VLA targets, None elsewhere."""
        if self._factory is None and self.load_factory is not None:
            self._factory = self.load_factory()
        return self._factory

    @property
    def vla(self) -> bool:
        """Whether a ragged tile runs exactly, with ``vsetvl`` narrowed
        to the remainder, instead of padding to a family shape."""
        return self.load_factory is not None

    @property
    def main_tile(self) -> Tuple[int, int]:
        return self.family[0]

    def cover_family(
        self, m: int, n: int, mr: int, nr: int
    ) -> List[Tuple[int, int]]:
        """The tile shapes that cover an (m, n) plane at main tile
        (mr, nr), for :func:`repro.ukernel.edge.tile_cover`.

        A packed-SIMD target takes the family's heights and widths up to
        the main tile, so a ragged remainder pads to the smallest.  A
        VLA target takes the main tile plus the plane's own remainders,
        so the cover is exact: :meth:`tile_parts` runs a ragged height
        at reduced ``vsetvl``.
        """
        if self.vla:
            heights = {mr, m % mr} - {0}
            widths = {nr, n % nr} - {0}
        else:
            heights = {h for h, _ in self.family if h <= mr}
            widths = {w for _, w in self.family if w <= nr}
        return [(h, w) for h in heights for w in widths]

    def tile_parts(self, h: int, w: int) -> List[Part]:
        """The kernels an (h, w) tile runs, as ``(row_offset, kernel)``
        pairs that tile rows ``[0, h)`` from 0; memoized per tile.

        On packed SIMD that is the tile's one stored kernel; on a VLA
        target the parts of
        :func:`repro.ukernel.generator.generate_vla_microkernel`: a
        full-lane body and, for a ragged height, a reduced-``vsetvl``
        tail.
        """
        parts = self._parts.get((h, w))
        if parts is None:
            from repro.ukernel import generator

            if self.vla:
                parts = generator.generate_vla_microkernel(
                    h, w, self.lib_factory
                )
            else:
                parts = [(0, generator.stored_microkernel(h, w, self.lib))]
            self._parts[(h, w)] = parts
        return parts

    def cache_key_fields(self) -> Dict[str, object]:
        """The target's identity inside persistent tune-cache keys:
        the ISA name, the vector length, and the machine fingerprint
        (so retuning a machine model never reads stale timings)."""
        return {
            "isa": self.name,
            "vlen": self.machine.vector_bits,
            "machine": machine_fingerprint(self.machine),
        }


ISA_TARGETS: Dict[str, IsaTarget] = {}


def register_isa_target(target: IsaTarget) -> IsaTarget:
    """Add a backend to the registry (last registration of a name wins)."""
    ISA_TARGETS[target.name] = target
    return target


def target(name: str) -> IsaTarget:
    t = ISA_TARGETS.get(name.lower())
    if t is None:
        raise KeyError(
            f"unknown ISA target {name!r}; registered: {sorted(ISA_TARGETS)}"
        )
    return t


def target_for_machine(machine: MachineModel) -> IsaTarget:
    """The target a machine executes, via its ``isa`` tag."""
    return target(machine.isa)


def _load_neon() -> dict:
    from .neon import NEON_F32_LIB

    return NEON_F32_LIB


def _load_avx512() -> dict:
    from .avx512 import AVX512_F32_LIB

    return AVX512_F32_LIB


def _rvv_factory_loader(vlen_bits: int, load_latency: int, fma_latency: int):
    def load() -> Callable:
        from .rvv import rvv_lib_factory

        return rvv_lib_factory(
            vlen_bits, load_latency=load_latency, fma_latency=fma_latency
        )

    return load


register_isa_target(
    IsaTarget(
        name="neon",
        machine=CARMEL,
        family=family_for_lanes(4),
        load_lib=_load_neon,
    )
)
register_isa_target(
    IsaTarget(
        name="avx512",
        machine=AVX512_SERVER,
        family=family_for_lanes(16),
        load_lib=_load_avx512,
    )
)
register_isa_target(
    IsaTarget(
        # the 2-socket server executes the same AVX-512 instruction
        # library and tile family as the 1-socket part; only the
        # machine (and so the timing/tune-cache fingerprint) differs
        name="numa2s",
        machine=NUMA_SERVER_2S,
        family=family_for_lanes(16),
        load_lib=_load_avx512,
    )
)
register_isa_target(
    IsaTarget(
        name="rvv128",
        machine=RVV_EDGE_VLEN128,
        family=family_for_lanes(4),
        load_factory=_rvv_factory_loader(128, load_latency=4, fma_latency=6),
    )
)
register_isa_target(
    IsaTarget(
        name="rvv256",
        machine=RVV_SERVER_VLEN256,
        family=family_for_lanes(8),
        load_factory=_rvv_factory_loader(256, load_latency=5, fma_latency=4),
    )
)
