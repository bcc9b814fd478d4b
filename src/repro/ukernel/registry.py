"""Kernel registry and model-driven kernel selection.

The paper's point 4: with generation this cheap, "the optimization process
for each problem ... boils down to evaluating a number of generated
micro-kernels."  The registry serves kernels from the process-wide store,
which builds each distinct kernel once; :func:`select_kernel_for` ranks
candidate register tiles for a given GEMM shape using the full timing
model and returns the winner.

The registry is ISA-agnostic: the instruction library and the register-tile
family are injected per machine through the ISA target registry
(:mod:`repro.isa.targets`) rather than hardcoded — ``registry_for_machine``
hands back a registry whose family matches the machine's vector length, and
no Neon module is imported unless the Neon default is actually used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.isa.machine import CARMEL, MachineModel
from repro.isa.targets import family_for_lanes, target_for_machine

# ``generate_microkernel`` stays bound here: callers that count
# generations wrap it by name (perfbench/spans.py).
from .generator import (  # noqa: F401
    GeneratedKernel,
    generate_microkernel,
    stored_microkernel,
)

#: the register-tile family evaluated in the paper (Figures 13 and 15),
#: closed under height x width combinations so any (m, n) plane decomposes
#: (the paper's runs never needed 1x4; generic shapes may).  This is the
#: lanes=4 instance of :func:`repro.isa.targets.family_for_lanes`.
DEFAULT_FAMILY: Tuple[Tuple[int, int], ...] = family_for_lanes(4)


@dataclass
class KernelRegistry:
    """The kernels of one instruction library, keyed by (mr, nr).

    ``lib`` is the instruction library all kernels target (Neon when
    omitted, for backward compatibility); ``family_shapes`` the tile
    family used by selection, derived from the library's vector length
    when not given.  Kernels come from the process-wide store
    (:func:`repro.ukernel.generator.stored_microkernel`); ``_kernels`` is
    this registry's view of it, the shapes it has handed out.
    """

    lib: Optional[dict] = None
    family_shapes: Optional[Tuple[Tuple[int, int], ...]] = None
    _kernels: Dict[Tuple[int, int], GeneratedKernel] = field(
        default_factory=dict
    )

    def __post_init__(self):
        if self.lib is None:
            from repro.isa.neon import NEON_F32_LIB

            self.lib = NEON_F32_LIB
        if self.family_shapes is None:
            self.family_shapes = family_for_lanes(self.lib["lanes"])

    def get(self, mr: int, nr: int) -> GeneratedKernel:
        key = (mr, nr)
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = self._kernels[key] = stored_microkernel(mr, nr, self.lib)
        return kernel

    def family(
        self, shapes: Optional[Tuple[Tuple[int, int], ...]] = None
    ) -> Dict[Tuple[int, int], GeneratedKernel]:
        shapes = shapes if shapes is not None else self.family_shapes
        return {shape: self.get(*shape) for shape in shapes}

    def __contains__(self, shape: Tuple[int, int]) -> bool:
        return shape in self._kernels


_default_registry: Optional[KernelRegistry] = None
_machine_registries: Dict[str, KernelRegistry] = {}


def default_registry() -> KernelRegistry:
    """Process-wide Neon registry so tests and benchmarks share kernels."""
    global _default_registry
    if _default_registry is None:
        _default_registry = KernelRegistry()
    return _default_registry


def registry_for_machine(machine: MachineModel) -> KernelRegistry:
    """The shared registry for a machine's ISA target.

    Machines tagged with the same ``isa`` share one registry (and so one
    set of generated kernels); the Neon target reuses the historical
    process-wide default registry.
    """
    isa = machine.isa
    if isa == "neon":
        return default_registry()
    if isa not in _machine_registries:
        t = target_for_machine(machine)
        _machine_registries[isa] = KernelRegistry(
            lib=t.lib, family_shapes=t.family
        )
    return _machine_registries[isa]


def select_kernel_for(
    m: int,
    n: int,
    k: int,
    machine: Optional[MachineModel] = None,
):
    """Pick the best main kernel for a GEMM shape by modelled time.

    Returns ``(shape, breakdown)`` for the fastest candidate.  This is the
    selection the paper applies in Section IV-B, where specific square
    sizes favour 8x4 or 8x8 over the default 8x12.  ``machine``
    (Carmel when omitted) ranks on that core with its own ISA library
    and family — e.g. an RVV machine selects among RVV register tiles.

    The candidate enumeration and the ranking order
    (:func:`repro.tune.space.rank_key`) are shared with
    :mod:`repro.tune`, so the parallel tuner and this serial path always
    agree on a winner.  The candidates are priced together, in one
    :func:`repro.eval.harness.exo_gemm_breakdowns` call.  When a tune
    cache is active (:func:`repro.tune.activate`), ranking reads cached
    timings and only prices the misses, which it persists back in one
    ``put``; a cache hit returns a :class:`repro.tune.TunedBreakdown`
    (same ``total_cycles``/``gflops``/``seconds`` surface as the
    modelled :class:`repro.sim.parallel.ParallelBreakdown`, but no
    ``machine`` field).
    """
    from repro.eval.harness import exo_gemm_breakdowns, machine_context
    from repro.tune.cache import (
        active_cache,
        breakdown_from_record,
        cache_key,
        record_from_breakdown,
    )
    from repro.tune.space import candidate_tiles, rank_key

    ctx = machine_context(machine if machine is not None else CARMEL)
    # already bounds-filtered, with the shape-respecting fallback
    # substituted when nothing fits
    fitting = candidate_tiles(
        ctx.registry.family_shapes, m, n, vla=bool(ctx.registry.lib.get("vla"))
    )
    cache = active_cache()
    # key by the machine the memoized context models (contexts are
    # shared by machine name), so a same-named but edited machine never
    # caches the shared context's timings under its own fingerprint
    keys = {}
    breakdowns = {}
    for shape in fitting if cache is not None else ():
        keys[shape] = cache_key(ctx.machine, shape, (m, n, k))
        record = cache.get(keys[shape])
        if record is not None:
            breakdowns[shape] = breakdown_from_record(record)
    misses = [s for s in fitting if s not in breakdowns]
    if misses:
        priced = exo_gemm_breakdowns([(m, n, k, s) for s in misses], ctx=ctx)
        breakdowns.update(zip(misses, priced))
        if cache is not None:
            cache.put(
                (keys[s], record_from_breakdown(b))
                for s, b in zip(misses, priced)
            )
    return min(
        ((s, breakdowns[s]) for s in fitting),
        key=lambda option: rank_key(option[1].total_cycles, option[0]),
    )
