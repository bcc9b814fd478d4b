"""Vectorized (NumPy) evaluation of the GEMM timing model over batches.

The scalar serial model, :func:`repro.sim.timing.gemm_time_model`,
evaluates one (shape, tile, machine) point per pure-Python call.  Tune
sweeps, the jc/ic/pc grid search, and the serving placement
enumeration would all be bottlenecked on that throughput.

This module evaluates the *same closed-form model* over whole candidate
batches at once: a :class:`CandidateBatch` holds parallel arrays of
(m, n, k, mr, nr, kc, nc, jc, ic, pc, dtype_bytes) plus the machine(s),
and :func:`batch_gemm_cycles` returns per-candidate cycle breakdowns —
compute, packing (with per-socket B replication), partial-C reduction,
and the DRAM ceiling — as arrays.

Every threaded GEMM and every tune candidate is priced here:
:func:`repro.sim.parallel.price_grid_requests` builds one batch per
sub-batch of grid requests, and a one-thread GEMM is simply the
one-slice ``(1, 1, 1)`` grid.

**Oracle contract.**  The scalar paths are the golden oracles —
``gemm_time_model`` for serial GEMMs and the scalar threaded model in
``tests/parallel_oracle.py`` — and this engine must match them *bit
for bit*, not approximately (the grid search breaks wall-clock ties on
exact float equality, so "close" would pick different partitions).
Every expression here therefore mirrors the scalar expression tree —
same operand order, same association, same int-vs-float promotion
points — because IEEE-754 float64 arithmetic is deterministic per
operation but not associative across them.  The parity suites
(``tests/test_vectorized.py``, ``tests/test_parallel.py``) cross-check
the paths cycle-for-cycle under hypothesis fuzzing; any cost-term
change must land in its oracle (``sim/timing.py``/``sim/memory.py``
or ``tests/parallel_oracle.py``) *and* here (see docs/model.md for
the recipe).

Array layout: one row per (shape, tile, requested jc/ic/pc grid)
candidate.  :func:`batch_gemm_cycles` picks the path from the data:

* every row asks for ``jc = ic = pc = 1`` — the serial path, which
  mirrors ``gemm_time_model`` row for row;
* otherwise the grid path, which expands each row to one row per
  *thread slice* in the exact enumeration order of the scalar oracle's
  ``partition_plane`` (``tests/parallel_oracle.py``), then
  segment-reduces back to candidates (busiest slice, first-max
  tie-break).  A slice that is the whole GEMM keeps the unscaled
  whole-GEMM packing and C-stall terms, so a ``(1, 1, 1)`` row prices
  exactly like the serial path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.isa.machine import MachineModel
from repro.obs import profile as obs_profile

from .parallel import partition_extent
from .timing import ChunkPlan, TimingModel

__all__ = [
    "PlanCost",
    "plan_costs",
    "CandidateBatch",
    "BatchBreakdown",
    "batch_gemm_cycles",
    "best_grid_indices",
]

#: memory-level parallelism of the C-stall model — must equal the
#: ``mlp`` constant inside :func:`repro.sim.memory.memory_cost`
MLP = 6.0


# ---------------------------------------------------------------------------
# Plan costs: the per-kernel-class scalars the compute formula needs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PlanCost:
    """One :class:`~repro.sim.timing.ChunkPlan` reduced to the scalars
    :func:`repro.sim.timing.plans_compute_cycles` actually consumes."""

    count: int
    cycles_per_iter: float
    edge_cycles: float
    call_overhead: float
    extra_call_cycles: float


def plan_costs(
    plans: Sequence[ChunkPlan], model: TimingModel
) -> Tuple[PlanCost, ...]:
    """Reduce chunk plans to :class:`PlanCost` tuples via ``model``.

    ``edge_cycles`` is precomputed exactly as
    :meth:`~repro.sim.timing.TimingModel.invocation_cycles` computes it
    per call — the value is invariant in ``kc``, so hoisting it out of
    the batch loop changes nothing.
    """
    vec = model.pipeline._dispatch_width()
    chime = model.machine.vector_chime
    costs = []
    for plan in plans:
        timing = model.timing_for(plan.trace, plan.mr, plan.nr)
        edge = (
            plan.trace.prologue_vector_ops + plan.trace.epilogue_vector_ops
        ) * chime / vec
        costs.append(
            PlanCost(
                count=plan.count,
                cycles_per_iter=timing.cycles_per_iter,
                edge_cycles=edge,
                call_overhead=plan.call_overhead,
                extra_call_cycles=plan.trace.extra_call_cycles,
            )
        )
    return tuple(costs)


#: (row index, plane m, plane n) -> the plan costs covering that plane
PlanSource = Callable[[int, int, int], Tuple[PlanCost, ...]]


# ---------------------------------------------------------------------------
# The batch
# ---------------------------------------------------------------------------


@dataclass
class CandidateBatch:
    """Parallel arrays of model-evaluation candidates.

    Every per-candidate field accepts any integer sequence and is
    normalized to an int64 array (scalars broadcast).  ``machine_idx``
    indexes into ``machines`` — a single-machine batch passes one
    machine and may omit the index array.  ``plan_source(i, m, n)``
    returns the :class:`PlanCost` tuple covering the (m, n) plane of
    candidate ``i`` (one thread slice's plane; the full plane for a
    ``(1, 1, 1)`` grid); the engine deduplicates calls per distinct
    (machine, mr, nr, m, n).  ``jc``/``ic``/``pc`` default to 1.
    """

    machines: Tuple[MachineModel, ...]
    m: np.ndarray
    n: np.ndarray
    k: np.ndarray
    mr: np.ndarray
    nr: np.ndarray
    kc: np.ndarray
    nc: np.ndarray
    plan_source: PlanSource
    jc: np.ndarray = None
    ic: np.ndarray = None
    pc: np.ndarray = None
    dtype_bytes: np.ndarray = 4
    machine_idx: np.ndarray = 0
    prefetch_c: bool = False

    def __post_init__(self):
        if isinstance(self.machines, MachineModel):
            self.machines = (self.machines,)
        size = np.broadcast(
            *(
                np.asarray(1 if a is None else a)
                for a in (
                    self.m, self.n, self.k, self.mr, self.nr,
                    self.kc, self.nc, self.jc, self.ic, self.pc,
                    self.dtype_bytes, self.machine_idx,
                )
            )
        ).size
        for name in (
            "m", "n", "k", "mr", "nr", "kc", "nc",
            "jc", "ic", "pc", "dtype_bytes", "machine_idx",
        ):
            value = getattr(self, name)
            if value is None:
                value = 1
            arr = np.broadcast_to(
                np.asarray(value, dtype=np.int64), (size,)
            ).copy()
            setattr(self, name, arr)

    def __len__(self) -> int:
        return self.m.shape[0]


@dataclass
class BatchBreakdown:
    """Per-candidate cycle breakdowns, as parallel float64/int64 arrays.

    The cycle components are the *critical* thread slice's (first-max
    over the slice enumeration order, exactly like the scalar model)
    and ``eff_jc``/``eff_ic``/``eff_pc`` are the effective
    (tile-clamped) ways of each candidate's partition.
    ``slice_busy_cycles[slice_offsets[i]:slice_offsets[i + 1]]`` is
    candidate ``i``'s per-thread busy time in slice enumeration order
    (one slice per candidate on the serial path).
    """

    compute_cycles: np.ndarray
    pack_cycles: np.ndarray
    c_stall_cycles: np.ndarray
    reduction_cycles: np.ndarray
    dram_limit_cycles: np.ndarray
    total_cycles: np.ndarray
    flops: np.ndarray
    freq_ghz: np.ndarray
    eff_jc: np.ndarray
    eff_ic: np.ndarray
    eff_pc: np.ndarray
    slice_busy_cycles: np.ndarray
    slice_offsets: np.ndarray

    @property
    def gflops(self) -> np.ndarray:
        return self.flops / self.total_cycles * self.freq_ghz

    @property
    def seconds(self) -> np.ndarray:
        return self.total_cycles / (self.freq_ghz * 1e9)

    def __len__(self) -> int:
        return self.total_cycles.shape[0]


# ---------------------------------------------------------------------------
# Machine property tables
# ---------------------------------------------------------------------------


def _machine_props(
    machines: Sequence[MachineModel], idx: np.ndarray
) -> Dict[str, np.ndarray]:
    """Per-row machine scalars, gathered through ``machine_idx``."""
    cols = {
        "load_pipes": [m.pipe_count("load") for m in machines],
        "per_core_bw": [m.dram_bandwidth_bytes_per_cycle for m in machines],
        "dram_latency": [m.dram_latency_cycles for m in machines],
        "line_bytes": [m.caches[0].line_bytes for m in machines],
        "freq_ghz": [m.freq_ghz for m in machines],
        "reduce_den": [
            m.pipe_count("fma") * m.vector_lanes() for m in machines
        ],
        "shared_l3": [1 if m.has_shared_l3 else 0 for m in machines],
        "penalty": [m.inter_socket_penalty for m in machines],
    }
    return {
        name: np.asarray(values, dtype=np.float64)[idx]
        for name, values in cols.items()
    }


# ---------------------------------------------------------------------------
# The two scalar formulas, vectorized with the exact operand order
# ---------------------------------------------------------------------------


def _fceil(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``math.ceil(num / den)`` as the scalar model computes it — true
    float division then ceil, *not* integer ceil-div."""
    return np.ceil(num / den)


def _dedup_rows(columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """``np.unique(stack(columns), axis=0)`` without the void-dtype sort.

    The columns are small non-negative ints (machine index, tile dims,
    plane extents), so the rows pack losslessly into one mixed-radix
    int64 key and the dedup runs as a fast 1-D unique — the axis-0 form
    argsorts void row-views, which dominated the whole engine in
    profiles.  Falls back to the axis-0 form if the radix product could
    overflow (never for physical GEMM shapes).
    """
    key = columns[0].astype(np.int64, copy=True)
    key_max = int(columns[0].max(initial=0))
    for col in columns[1:]:
        radix = int(col.max(initial=0)) + 1
        key_max = key_max * radix + radix - 1
        if key_max >= 2**63:
            _, first, inverse = np.unique(
                np.stack(columns, axis=1),
                axis=0,
                return_index=True,
                return_inverse=True,
            )
            return first, inverse.ravel()
        key *= radix
        key += col
    _, first, inverse = np.unique(
        key, return_index=True, return_inverse=True
    )
    return first, inverse.ravel()


#: id(plan tuple) -> (plan, its (5, len) dense column array), least
#: recently used first.  Consumers memoize ``plan_costs`` results so
#: steady-state sweeps pass the same tuple objects every batch — keying
#: by identity skips re-hashing five floats per plan per batch, and
#: keeping the tuple in the value pins its id so it can never be
#: recycled for a different plan.  Callers that build fresh tuples per
#: call (the threaded model, per slice plane) would grow it without
#: bound, so it keeps the ``_PLAN_ARRAY_CACHE_SIZE`` most recent plans.
_PLAN_ARRAY_CACHE: Dict[int, Tuple[Tuple[PlanCost, ...], np.ndarray]] = {}
_PLAN_ARRAY_CACHE_SIZE = 1024


def _plan_array(plan: Tuple[PlanCost, ...]) -> np.ndarray:
    hit = _PLAN_ARRAY_CACHE.pop(id(plan), None)
    if hit is not None:
        _PLAN_ARRAY_CACHE[id(plan)] = hit
        return hit[1]
    arr = np.array(
        [
            (
                c.count,
                c.cycles_per_iter,
                c.edge_cycles,
                c.call_overhead,
                c.extra_call_cycles,
            )
            for c in plan
        ]
    ).T.copy() if plan else np.zeros((5, 0))
    _PLAN_ARRAY_CACHE[id(plan)] = (plan, arr)
    if len(_PLAN_ARRAY_CACHE) > _PLAN_ARRAY_CACHE_SIZE:
        del _PLAN_ARRAY_CACHE[next(iter(_PLAN_ARRAY_CACHE))]
    return arr


def _plan_tables(
    keys: Sequence[np.ndarray], fetch: Callable[[int], Tuple[PlanCost, ...]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Pad the distinct planes' plan lists into dense per-slot tables.

    ``keys`` is a sequence of int64 columns jointly identifying each
    row's plane; ``fetch(row)`` produces the plan costs of that row's
    plane.  Returns ``(plane_id per row, tables)`` where ``tables`` is
    a (5, slots, planes) array — counts, cycles-per-iter, edge,
    overhead, extra per slot — and shorter plans are padded with
    all-zero slots — a zero-count, zero-cost slot contributes exactly
    ``+0.0`` to the accumulation, which is a bitwise no-op.  (The slot
    axis comes before the plane axis so per-slot row slices stay
    contiguous after the per-row gather in :func:`_compute_cycles`.)
    """
    first, inverse = _dedup_rows(keys)
    plans = [_plan_array(fetch(int(r))) for r in first]
    slots = max((p.shape[1] for p in plans), default=1)
    tables = np.zeros((5, max(slots, 1), len(plans)))
    for pid, plan in enumerate(plans):
        tables[:, : plan.shape[1], pid] = plan
    return inverse, tables


def _compute_cycles(
    plane_id: np.ndarray,
    tables: np.ndarray,
    k: np.ndarray,
    kc: np.ndarray,
) -> np.ndarray:
    """:func:`repro.sim.timing.plans_compute_cycles` over rows.

    Mirrors the scalar accumulation exactly: per plan slot,
    ``kc_full * inv(kc)`` plus ``inv(kc_rem)`` when a remainder exists,
    scaled by the slot count and summed in slot order.  The slot axis is
    evaluated as (rows, slots) 2-D elementwise ops — bit-identical to a
    per-slot loop since every operation stays elementwise — but the
    final slot accumulation is an explicit in-order loop: the scalar
    path sums plan contributions left to right and ``np.sum`` would
    reassociate.  The int operands convert to float64 up front (each
    mixed int*float ufunc converts element-wise anyway, exactly below
    2**53) and every 2-D op writes into a reused scratch buffer — same
    operations in the same order, so bit-identical, but without the
    malloc churn of one fresh temporary per ufunc, which profiles as
    the bulk of the runtime at tune-sweep batch sizes.
    """
    counts, cpi, edge, overhead, extra = tables[:, :, plane_id]
    kc_full, kc_rem = np.divmod(k, kc)
    has_rem = kc_rem > 0
    inv = np.empty_like(cpi)
    cycles = np.empty_like(cpi)
    # inv_full = ((kc * cpi + edge) + overhead) + extra
    np.multiply(kc.astype(np.float64), cpi, out=inv)
    np.add(inv, edge, out=inv)
    np.add(inv, overhead, out=inv)
    np.add(inv, extra, out=inv)
    np.multiply(kc_full.astype(np.float64), inv, out=cycles)
    # inv_rem, same shape; added only where a kc remainder exists — the
    # scalar path adds +0.0 there, a bitwise no-op on these >= 0 values
    np.multiply(kc_rem.astype(np.float64), cpi, out=inv)
    np.add(inv, edge, out=inv)
    np.add(inv, overhead, out=inv)
    np.add(inv, extra, out=inv)
    np.add(cycles, inv, out=cycles, where=has_rem)
    np.multiply(counts, cycles, out=cycles)
    compute = np.zeros(len(plane_id))
    for s in range(cycles.shape[0]):
        compute = compute + cycles[s]
    return compute


def _memory_costs(
    m: np.ndarray,
    n: np.ndarray,
    k: np.ndarray,
    mr: np.ndarray,
    nr: np.ndarray,
    kc: np.ndarray,
    nc: np.ndarray,
    dtype_bytes: np.ndarray,
    props: Dict[str, np.ndarray],
    prefetch_c: bool,
) -> Dict[str, np.ndarray]:
    """:func:`repro.sim.memory.memory_cost` over rows, operand for
    operand (see that function for the component derivations)."""
    jc_iters = np.maximum(1.0, _fceil(n, nc))
    pc_iters = np.maximum(1.0, _fceil(k, kc))

    copy_rate = 2.0 * props["load_pipes"] * dtype_bytes
    pack_a_bytes = 2.0 * m * k * dtype_bytes * jc_iters
    pack_b_bytes = 2.0 * k * n * dtype_bytes
    pack_a_cycles = pack_a_bytes / copy_rate
    pack_b_cycles = pack_b_bytes / copy_rate

    c_bytes = 2.0 * m * n * dtype_bytes * pc_iters

    tiles_per_pass = np.maximum(1.0, _fceil(m, mr)) * np.maximum(
        1.0, _fceil(n, nr)
    )
    lines_per_tile = np.maximum(
        1.0, _fceil(mr * nr * dtype_bytes, props["line_bytes"])
    )
    stall_per_tile = lines_per_tile / MLP * props["dram_latency"]
    if prefetch_c:
        c_stall_cycles = np.zeros(len(m))
    else:
        c_stall_cycles = stall_per_tile * tiles_per_pass * pc_iters

    # the scalar model sums two exact ints before converting to float;
    # int64 reproduces that as long as the products stay below 2**53,
    # which every physical GEMM shape does by orders of magnitude
    dram_bytes = (
        m * k * dtype_bytes * jc_iters.astype(np.int64)
        + k * n * dtype_bytes
    ) + c_bytes
    return {
        "pack_a_cycles": pack_a_cycles,
        "pack_b_cycles": pack_b_cycles,
        "c_stall_cycles": c_stall_cycles,
        "dram_bytes": dram_bytes,
        "jc_iters": jc_iters,
        "pc_iters": pc_iters,
        "total_tiles": tiles_per_pass,
    }


# ---------------------------------------------------------------------------
# Serial path: gemm_time_model over all-(1, 1, 1) rows
# ---------------------------------------------------------------------------


def _serial_breakdown(batch: CandidateBatch) -> BatchBreakdown:
    props = _machine_props(batch.machines, batch.machine_idx)
    mem = _memory_costs(
        batch.m, batch.n, batch.k, batch.mr, batch.nr,
        batch.kc, batch.nc, batch.dtype_bytes, props, batch.prefetch_c,
    )
    plane_id, tables = _plan_tables(
        (batch.machine_idx, batch.mr, batch.nr, batch.m, batch.n),
        lambda r: batch.plan_source(r, int(batch.m[r]), int(batch.n[r])),
    )
    compute = _compute_cycles(plane_id, tables, batch.k, batch.kc)
    pack = mem["pack_a_cycles"] + mem["pack_b_cycles"]
    busy = compute + pack + mem["c_stall_cycles"]
    dram_limit = mem["dram_bytes"] / props["per_core_bw"]
    ones = np.ones(len(batch), dtype=np.int64)
    return BatchBreakdown(
        compute_cycles=compute,
        pack_cycles=pack,
        c_stall_cycles=mem["c_stall_cycles"],
        reduction_cycles=np.zeros(len(batch)),
        dram_limit_cycles=dram_limit,
        total_cycles=np.maximum(busy, dram_limit),
        flops=2 * batch.m * batch.n * batch.k,
        freq_ghz=props["freq_ghz"],
        eff_jc=ones,
        eff_ic=ones.copy(),
        eff_pc=ones.copy(),
        slice_busy_cycles=busy,
        slice_offsets=np.arange(len(batch) + 1),
    )


# ---------------------------------------------------------------------------
# Grid path: the threaded model's wall clock over rows
# ---------------------------------------------------------------------------


@dataclass
class _SliceRows:
    """The grid batch expanded to one row per thread slice."""

    cand: np.ndarray  # slice row -> candidate row
    m_t: np.ndarray
    n_t: np.ndarray
    k_t: np.ndarray
    has_ks: np.ndarray  # bool: slice carries an explicit k span
    offsets: np.ndarray  # candidate -> first slice row (len C+1)
    eff_jc: np.ndarray
    eff_ic: np.ndarray
    eff_pc: np.ndarray
    stream_bw: np.ndarray  # per candidate
    spanned: np.ndarray  # per candidate


def _span_table(
    extent: np.ndarray, ways: np.ndarray, granule: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row's :func:`repro.sim.parallel.partition_extent` spans.

    Each distinct ``(extent, ways, granule)`` is split once.  Returns
    ``(first, count, extents)``: row ``i``'s span extents are
    ``extents[first[i]:first[i] + count[i]]``.
    """
    keys = list(zip(extent.tolist(), ways.tolist(), granule.tolist()))
    table: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
    extents: List[int] = []
    for key in dict.fromkeys(keys):
        spans = partition_extent(*key)
        table[key] = (len(extents), len(spans))
        extents.extend(span.extent for span in spans)
    first, count = np.array(
        [table[key] for key in keys], dtype=np.int64
    ).reshape(-1, 2).T
    return first, count, np.array(extents, dtype=np.int64)


def _expand_slices(batch: CandidateBatch) -> _SliceRows:
    """Every candidate's thread slices, one row each, as arrays.

    The spans come from :func:`_span_table`, so from the *same*
    :func:`repro.sim.parallel.partition_extent` calls as the oracle's
    ``partition_plane`` (``tests/parallel_oracle.py``), and the rows
    follow its jc-outer / ic / pc-inner order: a candidate's slice
    ``s`` is column span ``s // (ic * pc)``, row span
    ``s // pc % ic`` and k span ``s % pc``, in effective ways.  A
    ``pc = 1`` row splits k into its one full span.
    ``tests/parallel_oracle.py::expand_slices`` is the per-slice loop
    this must equal.
    """
    col_first, eff_jc, col_ext = _span_table(batch.n, batch.jc, batch.nr)
    row_first, eff_ic, row_ext = _span_table(batch.m, batch.ic, batch.mr)
    k_first, eff_pc, k_ext = _span_table(batch.k, batch.pc, batch.kc)
    active = eff_jc * eff_ic * eff_pc
    offsets = np.zeros(len(batch) + 1, dtype=np.int64)
    np.cumsum(active, out=offsets[1:])
    cand = np.repeat(np.arange(len(batch), dtype=np.int64), active)
    local = np.arange(offsets[-1], dtype=np.int64) - offsets[:-1][cand]
    col, rest = np.divmod(local, (eff_ic * eff_pc)[cand])
    row, ks = np.divmod(rest, eff_pc[cand])

    bw_keys = list(zip(batch.machine_idx.tolist(), active.tolist()))
    bw_memo = {
        (mi, threads): (
            batch.machines[mi].stream_bandwidth(threads),
            batch.machines[mi].sockets_spanned(threads),
        )
        for mi, threads in dict.fromkeys(bw_keys)
    }
    return _SliceRows(
        cand=cand,
        m_t=row_ext[row_first[cand] + row],
        n_t=col_ext[col_first[cand] + col],
        k_t=k_ext[k_first[cand] + ks],
        has_ks=(batch.pc > 1)[cand],
        offsets=offsets,
        eff_jc=eff_jc,
        eff_ic=eff_ic,
        eff_pc=eff_pc,
        stream_bw=np.array(
            [bw_memo[key][0] for key in bw_keys], dtype=np.float64
        ),
        spanned=np.array(
            [bw_memo[key][1] for key in bw_keys], dtype=np.int64
        ),
    )


def _segment_first_max(
    values: np.ndarray, segment: np.ndarray, starts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each segment's maximum and the row of its first occurrence.

    ``segment`` maps rows to segments, which start at ``starts`` and
    are non-empty.  The first maximum is ``np.argmax``'s tie rule, the
    scalar oracle's ``max`` over slices in enumeration order.
    """
    top = np.maximum.reduceat(values, starts)
    rows = np.arange(len(values), dtype=np.int64)
    at_top = np.where(values == top[segment], rows, len(values))
    return top, np.minimum.reduceat(at_top, starts)


def _grid_breakdown(batch: CandidateBatch) -> BatchBreakdown:
    props = _machine_props(batch.machines, batch.machine_idx)
    mem = _memory_costs(
        batch.m, batch.n, batch.k, batch.mr, batch.nr,
        batch.kc, batch.nc, batch.dtype_bytes, props, batch.prefetch_c,
    )
    sl = _expand_slices(batch)
    ci = sl.cand  # gather index: slice row -> candidate row

    # -- per-slice busy cycles (oracle: slice_parts + reduction_for) -------
    plane_id, tables = _plan_tables(
        (
            batch.machine_idx[ci], batch.mr[ci], batch.nr[ci],
            sl.m_t, sl.n_t,
        ),
        lambda r: batch.plan_source(
            int(ci[r]), int(sl.m_t[r]), int(sl.n_t[r])
        ),
    )
    compute_t = _compute_cycles(plane_id, tables, sl.k_t, batch.kc[ci])

    jc_iters_t = np.maximum(1.0, _fceil(sl.n_t, batch.nc[ci]))
    pack_a_t = mem["pack_a_cycles"][ci] * (sl.m_t * jc_iters_t) / (
        batch.m[ci] * mem["jc_iters"].astype(np.int64)[ci]
    )
    pack_b_t = mem["pack_b_cycles"][ci] * sl.n_t / batch.n[ci]
    tiles_t = np.maximum(1.0, _fceil(sl.m_t, batch.mr[ci])) * np.maximum(
        1.0, _fceil(sl.n_t, batch.nr[ci])
    )
    c_stall_t = mem["c_stall_cycles"][ci] * tiles_t / mem["total_tiles"][ci]
    # a slice that is the whole GEMM keeps the whole-GEMM terms: the
    # part/whole rescale above can round them off by an ulp
    whole = (sl.m_t == batch.m[ci]) & (sl.n_t == batch.n[ci]) & ~sl.has_ks
    pack_a_t = np.where(whole, mem["pack_a_cycles"][ci], pack_a_t)
    pack_b_t = np.where(whole, mem["pack_b_cycles"][ci], pack_b_t)
    c_stall_t = np.where(whole, mem["c_stall_cycles"][ci], c_stall_t)
    k_frac = sl.k_t / batch.k[ci]
    pack_a_t = np.where(sl.has_ks, pack_a_t * k_frac, pack_a_t)
    pack_b_t = np.where(sl.has_ks, pack_b_t * k_frac, pack_b_t)
    stall_frac = (
        np.maximum(1.0, _fceil(sl.k_t, batch.kc[ci])) / mem["pc_iters"][ci]
    )
    c_stall_t = np.where(sl.has_ks, c_stall_t * stall_frac, c_stall_t)
    pack_t = pack_a_t + pack_b_t

    eff_pc_row = sl.eff_pc[ci]
    extra = eff_pc_row - 1
    move = (2.0 * sl.m_t * sl.n_t * batch.dtype_bytes[ci] * extra) / (
        props["per_core_bw"][ci]
    )
    adds = (sl.m_t * sl.n_t * extra) / props["reduce_den"][ci]
    red_t = np.where(eff_pc_row > 1, move + adds, 0.0)

    busy = compute_t + pack_t + c_stall_t + red_t

    # -- per-candidate reductions ------------------------------------------
    seg_start = sl.offsets[:-1]
    busy_max, critical = _segment_first_max(busy, ci, seg_start)

    # -- DRAM ceiling (oracle: dram_limit_for) -----------------------------
    dram = mem["dram_bytes"]
    b_panel = batch.k * batch.n * batch.dtype_bytes
    dram = np.where(
        (sl.eff_ic > 1) & (props["shared_l3"] == 0),
        dram + (sl.eff_ic - 1) * b_panel,
        dram,
    )
    dram = np.where(
        sl.eff_pc > 1,
        dram + (sl.eff_pc - 1) * 2.0 * batch.m * batch.n * batch.dtype_bytes,
        dram,
    )
    dram = np.where(
        sl.spanned > 1,
        dram + (sl.spanned - 1) * batch.k * batch.n * batch.dtype_bytes
        * props["penalty"],
        dram,
    )
    dram_limit = dram / sl.stream_bw

    return BatchBreakdown(
        compute_cycles=compute_t[critical],
        pack_cycles=pack_t[critical],
        c_stall_cycles=c_stall_t[critical],
        reduction_cycles=red_t[critical],
        dram_limit_cycles=dram_limit,
        total_cycles=np.maximum(busy_max, dram_limit),
        flops=2 * batch.m * batch.n * batch.k,
        freq_ghz=props["freq_ghz"],
        eff_jc=sl.eff_jc,
        eff_ic=sl.eff_ic,
        eff_pc=sl.eff_pc,
        slice_busy_cycles=busy,
        slice_offsets=sl.offsets,
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def batch_gemm_cycles(
    batch: CandidateBatch, profile: bool = True
) -> BatchBreakdown:
    """Evaluate the timing model over every candidate of ``batch``.

    A batch whose every row asks for ``jc = ic = pc = 1`` runs the
    serial path, any other the grid path; both price a ``(1, 1, 1)``
    row identically, so the choice only saves the slice expansion.
    One obs profile event covers the whole batch — a single
    ``batch.serial`` or ``batch.grid`` span, after the path taken, with
    a ``candidates`` count plus the ``model.candidates_evaluated``
    counter, never one event per candidate.  Internal callers that
    already emit their own profile record
    (``parallel_gemm_breakdown``) pass ``profile=False``.
    """
    prof = obs_profile.ACTIVE if profile else None
    started = time.perf_counter() if prof is not None else None  # det: ok DET101 (wall profiling span)
    if np.all((batch.jc == 1) & (batch.ic == 1) & (batch.pc == 1)):
        kind, breakdown = "serial", _serial_breakdown(batch)
    else:
        kind, breakdown = "grid", _grid_breakdown(batch)
    if prof is not None:
        prof.record_batch(kind, len(batch), started=started)
    return breakdown


def best_grid_indices(
    breakdown: BatchBreakdown, offsets: Sequence[int]
) -> List[int]:
    """Winner row per ``[offsets[i], offsets[i+1])`` candidate segment.

    The scalar search's exact preference: minimal wall clock, ties
    broken by fewer effective pc ways, then more jc ways, then fewer ic
    ways — first winner in enumeration order (Python ``min``).
    """
    winners = []
    for a, b in zip(offsets[:-1], offsets[1:]):
        winners.append(
            min(
                range(int(a), int(b)),
                key=lambda i: (
                    breakdown.total_cycles[i],
                    breakdown.eff_pc[i],
                    -breakdown.eff_jc[i],
                    breakdown.eff_ic[i],
                ),
            )
        )
    return winners
