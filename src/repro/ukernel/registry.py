"""Model-driven kernel selection.

The paper's point 4: with generation this cheap, "the optimization process
for each problem ... boils down to evaluating a number of generated
micro-kernels."  :func:`select_kernel_for` ranks candidate register tiles
for a given GEMM shape using the full timing model and returns the winner.

The kernels themselves come from the machine's ISA target
(:mod:`repro.isa.targets`): ``target_for_machine(machine).get(mr, nr)`` is
a tile's one stored kernel and ``tile_parts(mr, nr)`` the kernels it runs.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.machine import CARMEL, MachineModel
from repro.isa.targets import IsaTarget, target_for_machine

# ``generate_microkernel`` stays bound here: callers that count
# generations wrap it by name (perfbench/spans.py).
from .generator import generate_microkernel  # noqa: F401


def registry_for_machine(machine: MachineModel) -> IsaTarget:
    """:func:`repro.isa.targets.target_for_machine` under the name the
    workflow benchmark binds (perfbench/workloads.py)."""
    return target_for_machine(machine)


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
    fitting = candidate_tiles(ctx.target, m, n)
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
