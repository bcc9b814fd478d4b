"""Vectorized (NumPy) evaluation of the GEMM timing model over batches.

This module evaluates the five-loop GEMM model's closed form over
whole candidate batches at once: a :class:`CandidateBatch` holds
parallel arrays of (m, n, k, mr, nr, kc, nc, jc, ic, pc, dtype_bytes)
plus the machine(s), and :func:`batch_gemm_cycles` returns
per-candidate cycle breakdowns — compute, packing (with per-socket B
replication), partial-C reduction, and the DRAM ceiling — as arrays.

It is the only production pricing path: every GEMM, serial or
threaded, is priced here through
:func:`repro.sim.parallel.price_grid_requests`, which builds one batch
per sub-batch of grid requests.  A serial GEMM
(:func:`repro.sim.timing.gemm_time_model`) is simply the one-slice
``(1, 1, 1)`` grid.

**Oracle contract.**  The scalar models in ``tests/parallel_oracle.py``
— the serial ``gemm_time_model`` and the threaded
``parallel_gemm_breakdown`` — are the golden oracles, and this engine
must match them *bit for bit*, not approximately (the grid search
breaks wall-clock ties on exact float equality, so "close" would pick
different partitions).  Every expression here therefore mirrors the
scalar expression tree — same operand order, same association, same
int-vs-float promotion points — because IEEE-754 float64 arithmetic is
deterministic per operation but not associative across them.  The
parity suites (``tests/test_vectorized.py``,
``tests/test_parallel.py``) cross-check the paths cycle-for-cycle under
hypothesis fuzzing; any cost-term change must land in the oracle
(``tests/parallel_oracle.py``) *and* here (see docs/model.md for the
recipe).

Array layout: one row per (shape, tile, requested jc/ic/pc grid)
candidate.  :func:`batch_gemm_cycles` expands each row to one row per
*thread slice* in the exact enumeration order of the scalar oracle's
``partition_plane``, then segment-reduces back to candidates (busiest
slice, first-max tie-break).  A slice that is the whole GEMM keeps the
unscaled whole-GEMM packing and C-stall terms, so a ``(1, 1, 1)`` row
prices exactly like the scalar serial model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.isa.machine import MachineModel
from repro.obs import profile as obs_profile

from .timing import ChunkPlan, TimingModel

__all__ = [
    "plan_costs",
    "CandidateBatch",
    "BatchBreakdown",
    "batch_gemm_cycles",
    "best_grid_indices",
]

#: memory-level parallelism of the C-stall model — must equal the
#: ``mlp`` constant inside the oracle's ``memory_cost``
MLP = 6.0


# ---------------------------------------------------------------------------
# Plan costs: the per-kernel-class scalars the compute formula needs
# ---------------------------------------------------------------------------


def plan_costs(plans: Sequence[ChunkPlan], model: TimingModel) -> np.ndarray:
    """Reduce chunk plans to the scalars the compute formula consumes.

    Returns a (5, plans) float64 array: per plan its count, cycles per
    k iteration, edge cycles, call overhead and extra call cycles, the
    rows of :func:`_plan_tables`.  The edge cycles are precomputed
    exactly as :meth:`~repro.sim.timing.TimingModel.invocation_cycles`
    computes them per call — the value is invariant in ``kc``, so
    hoisting it out of the batch loop changes nothing.
    """
    vec = model.pipeline._dispatch_width()
    chime = model.machine.vector_chime
    rows = [
        (
            plan.count,
            model.timing_for(plan.trace, plan.mr, plan.nr).cycles_per_iter,
            (plan.trace.prologue_vector_ops + plan.trace.epilogue_vector_ops)
            * chime / vec,
            plan.call_overhead,
            plan.trace.extra_call_cycles,
        )
        for plan in plans
    ]
    return np.array(rows, dtype=np.float64).reshape(-1, 5).T.copy()


#: (row index, plane m, plane n) -> the :func:`plan_costs` array
#: covering that plane
PlanSource = Callable[[int, int, int], np.ndarray]


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
    returns the :func:`plan_costs` array covering the (m, n) plane of
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
        names = (
            "m", "n", "k", "mr", "nr", "kc", "nc",
            "jc", "ic", "pc", "dtype_bytes", "machine_idx",
        )
        columns = [
            np.asarray(
                1 if getattr(self, name) is None else getattr(self, name),
                dtype=np.int64,
            )
            for name in names
        ]
        size = np.broadcast(*columns).size
        for name, column in zip(names, columns):
            # a new array per field, the batch never aliases its inputs
            setattr(self, name, np.full(size, column, dtype=np.int64))

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
    (one slice for a ``(1, 1, 1)`` candidate).
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
    profiles.  Returns ``(first, inverse)``: each distinct row's first
    occurrence, and each row's distinct-row index.  The keys sort with
    the default (unstable) argsort, half the cost of the stable one
    ``np.unique(..., return_index=True)`` needs, and ``np.minimum.at``
    finds the first occurrences instead.  Falls back to the axis-0 form
    if the radix product could overflow (never for physical GEMM
    shapes).
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
    order = key.argsort()
    ordered = key[order]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(len(key), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    first = np.full(int(new.sum()), len(key))
    np.minimum.at(first, inverse, np.arange(len(key)))
    return first, inverse


def _plan_tables(
    keys: Sequence[np.ndarray],
    fetch: Callable[[np.ndarray], List[np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Pad the distinct planes' plan lists into dense per-slot tables.

    ``keys`` is a sequence of int64 columns jointly identifying each
    row's plane; ``fetch(rows)`` lists the :func:`plan_costs` arrays of
    those rows' planes.  Returns ``(plane_id per row, tables)``, where
    ``tables`` is a (5, planes, slots) array — counts, cycles-per-iter, edge,
    overhead, extra per slot — and shorter plans are padded with
    all-zero slots — a zero-count, zero-cost slot contributes exactly
    ``+0.0`` to the accumulation, which is a bitwise no-op.
    """
    first, inverse = _dedup_rows(keys)
    plans = fetch(first)
    lengths = np.array([p.shape[1] for p in plans], dtype=np.int64)
    tables = np.zeros((5, len(plans), max(1, lengths.max(initial=0))))
    if plans:
        plane = np.repeat(np.arange(len(plans)), lengths)
        slot = np.arange(len(plane)) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        tables[:, plane, slot] = np.concatenate(plans, axis=1)
    return inverse, tables


def _compute_cycles(
    plane_id: np.ndarray,
    tables: np.ndarray,
    k: np.ndarray,
    kc: np.ndarray,
) -> np.ndarray:
    """The scalar compute formula over rows (``tests/parallel_oracle.py``).

    Mirrors the scalar accumulation exactly: per plan slot,
    ``kc_full * inv(kc)`` plus ``inv(kc_rem)`` when a remainder exists,
    scaled by the slot count and summed in slot order.  The slots are
    evaluated as (rows, slots) 2-D elementwise ops — bit-identical to a
    per-slot loop since every operation stays elementwise — but the
    final slot accumulation is an explicit in-order loop: the scalar
    path sums plan contributions left to right and ``np.sum`` would
    reassociate.  The int operands convert to float64 up front (each
    mixed int*float ufunc converts element-wise anyway, exactly below
    2**53) and the 2-D ops write into reused scratch buffers — same
    operations in the same order, so bit-identical, but without the
    malloc churn of one fresh temporary per ufunc.  The per-row gather
    is a ``take`` along the plane axis, so every (rows, slots) operand
    is C-contiguous.  The operands and both buffers share one
    allocation: glibc hands memory back to the system once the free
    space at the top of the heap passes twice the largest block it has
    mapped, and several smaller blocks freed together passed that mark
    and page-faulted back in on every batch.
    """
    work = np.empty((7, len(plane_id), tables.shape[2]))
    # mode="clip" (the ids are in range): "raise" buffers ``out``
    np.take(tables, plane_id, axis=1, out=work[:5], mode="clip")
    counts, cpi, edge, overhead, extra, inv, cycles = work
    kc_full, kc_rem = np.divmod(k, kc)
    # inv_full = ((kc * cpi + edge) + overhead) + extra
    np.multiply(kc.astype(np.float64)[:, None], cpi, out=inv)
    np.add(inv, edge, out=inv)
    np.add(inv, overhead, out=inv)
    np.add(inv, extra, out=inv)
    np.multiply(kc_full.astype(np.float64)[:, None], inv, out=cycles)
    # inv_rem, same shape; added only where a kc remainder exists — the
    # scalar path adds +0.0 there, a bitwise no-op on these >= 0 values
    np.multiply(kc_rem.astype(np.float64)[:, None], cpi, out=inv)
    np.add(inv, edge, out=inv)
    np.add(inv, overhead, out=inv)
    np.add(inv, extra, out=inv)
    np.add(cycles, inv, out=cycles, where=(kc_rem > 0)[:, None])
    np.multiply(counts, cycles, out=cycles)
    compute = np.zeros(len(plane_id))
    for s in range(cycles.shape[1]):
        compute += cycles[:, s]
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
    """The oracle's ``memory_cost`` (``tests/parallel_oracle.py``) over
    rows, operand for operand (see it for the component derivations)."""
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
# The threaded model's wall clock over rows
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


def _gather(column: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """A new array of ``column[cand]``: a candidate column on the slice
    rows.  Every candidate has a slice, so as many slice rows as
    candidates means one slice each, and the gather is a copy."""
    if len(cand) == len(column):
        return column.copy()
    return column[cand]


def _effective_ways(
    extent: np.ndarray, ways: np.ndarray, granule: np.ndarray
) -> np.ndarray:
    """Every row's span count: ``min(ways, tiles)`` over the extent's
    ``granule`` tiles, as the oracle's ``partition_extent`` splits it.
    Computed only where more than one way is asked for.
    """
    if len(extent) and min(extent.min(), ways.min(), granule.min()) < 1:
        raise ValueError("extents, ways and granules must be >= 1")
    eff = ways.copy()
    split = np.flatnonzero(ways > 1)
    if split.size:
        eff[split] = np.minimum(
            ways[split], -(-extent[split] // granule[split])
        )
    return eff


def _span_extents(
    cand: np.ndarray,
    offsets: np.ndarray,
    extent: np.ndarray,
    eff: np.ndarray,
    granule: np.ndarray,
    stride: np.ndarray,
) -> np.ndarray:
    """Each slice's span extent along one dimension.

    A candidate's slice ``s`` (counted from ``offsets``) sits in span
    ``s // stride % eff`` of the dimension.  A one-way dimension's span
    is the whole extent; a split one is the oracle's
    ``partition_extent`` span, in closed form: the extent's ``granule``
    tiles spread ``base`` per span plus one more for each of the first
    ``rem``, so the spans before span ``j`` hold ``j * base + min(j,
    rem)`` tiles.  Only the
    last span can reach past the extent — every earlier one ends at
    least one tile short of it — and it is clipped there: the ragged
    sub-``granule`` remainder rides in the final span.
    """
    out = _gather(extent, cand)
    split = np.flatnonzero(_gather(eff, cand) > 1)
    if not split.size:
        return out
    c = cand[split]
    ways, size = eff[c], granule[c]
    j = (split - offsets[c]) // stride[c] % ways
    base, rem = np.divmod(-(-extent[c] // size), ways)
    start = (j * base + np.minimum(j, rem)) * size
    stop = np.minimum(start + (base + (j < rem)) * size, extent[c])
    out[split] = stop - start
    return out


def _expand_slices(batch: CandidateBatch) -> _SliceRows:
    """Every candidate's thread slices, one row each, as arrays.

    The spans are the ones the oracle's ``partition_plane``
    (``tests/parallel_oracle.py``) cuts with ``partition_extent``, in
    closed form (:func:`_span_extents`), and the rows follow its
    jc-outer / ic / pc-inner order: a candidate's slice ``s`` is
    column span ``s // (ic * pc)``, row span ``s // pc % ic`` and k
    span ``s % pc``, in effective ways.  A ``pc = 1`` row splits k into
    its one full span.  ``tests/parallel_oracle.py::expand_slices`` is
    the per-slice loop this must equal.
    """
    eff_jc = _effective_ways(batch.n, batch.jc, batch.nr)
    eff_ic = _effective_ways(batch.m, batch.ic, batch.mr)
    eff_pc = _effective_ways(batch.k, batch.pc, batch.kc)
    active = eff_jc * eff_ic * eff_pc
    offsets = np.zeros(len(batch) + 1, dtype=np.int64)
    np.cumsum(active, out=offsets[1:])
    cand = np.repeat(np.arange(len(batch), dtype=np.int64), active)

    # the ensemble's stream bandwidth and socket span, once per distinct
    # (machine, active threads)
    width = int(active.max(initial=0)) + 1
    ensemble = batch.machine_idx * width + active
    stream_bw = np.zeros(len(batch.machines) * width)
    spanned = np.zeros(len(batch.machines) * width, dtype=np.int64)
    for code in np.flatnonzero(np.bincount(ensemble)).tolist():
        machine, threads = batch.machines[code // width], code % width
        stream_bw[code] = machine.stream_bandwidth(threads)
        spanned[code] = machine.sockets_spanned(threads)

    return _SliceRows(
        cand=cand,
        m_t=_span_extents(cand, offsets, batch.m, eff_ic, batch.mr, eff_pc),
        n_t=_span_extents(
            cand, offsets, batch.n, eff_jc, batch.nr, eff_ic * eff_pc
        ),
        k_t=_span_extents(
            cand, offsets, batch.k, eff_pc, batch.kc, np.ones_like(eff_pc)
        ),
        has_ks=_gather(batch.pc > 1, cand),
        offsets=offsets,
        eff_jc=eff_jc,
        eff_ic=eff_ic,
        eff_pc=eff_pc,
        stream_bw=stream_bw[ensemble],
        spanned=spanned[ensemble],
    )


def _segment_first_max(
    values: np.ndarray, segment: np.ndarray, starts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each segment's maximum and the row of its first occurrence.

    ``segment`` maps rows to segments, which start at ``starts`` and
    are non-empty.  The first maximum is ``np.argmax``'s tie rule, the
    scalar oracle's ``max`` over slices in enumeration order.
    """
    if len(values) == len(starts):  # every segment is one row
        return values, np.arange(len(values), dtype=np.int64)
    top = np.maximum.reduceat(values, starts)
    rows = np.arange(len(values), dtype=np.int64)
    at_top = np.where(values == top[segment], rows, len(values))
    return top, np.minimum.reduceat(at_top, starts)


def _grid_breakdown(batch: CandidateBatch) -> BatchBreakdown:
    sl = _expand_slices(batch)
    props = _machine_props(batch.machines, batch.machine_idx)
    mem = _memory_costs(
        batch.m, batch.n, batch.k, batch.mr, batch.nr,
        batch.kc, batch.nc, batch.dtype_bytes, props, batch.prefetch_c,
    )

    def take(column: np.ndarray) -> np.ndarray:
        return _gather(column, sl.cand)

    # -- per-slice busy cycles (oracle: slice_parts + reduction_for) -------
    plane_id, tables = _plan_tables(
        (take(batch.machine_idx), take(batch.mr), take(batch.nr),
         sl.m_t, sl.n_t),
        lambda rows: [
            batch.plan_source(*plane)
            for plane in zip(
                sl.cand[rows].tolist(),
                sl.m_t[rows].tolist(),
                sl.n_t[rows].tolist(),
            )
        ],
    )
    compute_t = _compute_cycles(plane_id, tables, sl.k_t, take(batch.kc))

    # a slice that is the whole GEMM keeps the whole-GEMM packing and
    # C-stall terms; every other one rescales them to its part (the
    # rescale can round the whole off by an ulp)
    pack_a_t = take(mem["pack_a_cycles"])
    pack_b_t = take(mem["pack_b_cycles"])
    c_stall_t = take(mem["c_stall_cycles"])
    part = np.flatnonzero(
        (sl.m_t != take(batch.m)) | (sl.n_t != take(batch.n)) | sl.has_ks
    )
    if part.size:
        c = sl.cand[part]
        m_p, n_p = sl.m_t[part], sl.n_t[part]
        jc_iters_p = np.maximum(1.0, _fceil(n_p, batch.nc[c]))
        pack_a_t[part] = mem["pack_a_cycles"][c] * (m_p * jc_iters_p) / (
            batch.m[c] * mem["jc_iters"].astype(np.int64)[c]
        )
        pack_b_t[part] = mem["pack_b_cycles"][c] * n_p / batch.n[c]
        tiles_p = np.maximum(1.0, _fceil(m_p, batch.mr[c])) * np.maximum(
            1.0, _fceil(n_p, batch.nr[c])
        )
        c_stall_t[part] = (
            mem["c_stall_cycles"][c] * tiles_p / mem["total_tiles"][c]
        )
    # a pc way touches only its k slice
    ks = np.flatnonzero(sl.has_ks)
    if ks.size:
        c = sl.cand[ks]
        k_frac = sl.k_t[ks] / batch.k[c]
        pack_a_t[ks] *= k_frac
        pack_b_t[ks] *= k_frac
        c_stall_t[ks] *= np.maximum(
            1.0, _fceil(sl.k_t[ks], batch.kc[c])
        ) / mem["pc_iters"][c]
    pack_t = pack_a_t + pack_b_t

    # the partial-C combine of a pc split
    red_t = np.zeros(len(sl.cand))
    reduced = np.flatnonzero(take(sl.eff_pc) > 1)
    if reduced.size:
        c = sl.cand[reduced]
        m_r, n_r = sl.m_t[reduced], sl.n_t[reduced]
        extra = sl.eff_pc[c] - 1
        move = (2.0 * m_r * n_r * batch.dtype_bytes[c] * extra) / (
            props["per_core_bw"][c]
        )
        adds = (m_r * n_r * extra) / props["reduce_den"][c]
        red_t[reduced] = move + adds

    busy = compute_t + pack_t + c_stall_t + red_t

    # -- per-candidate reductions ------------------------------------------
    busy_max, critical = _segment_first_max(
        busy, sl.cand, sl.offsets[:-1]
    )

    # -- DRAM ceiling (oracle: dram_limit_for) -----------------------------
    # each extra traffic term lands only on the candidates it applies to
    dram = mem["dram_bytes"].copy()
    k, n, width = batch.k, batch.n, batch.dtype_bytes
    # no shared LLC: each extra row way streams its own B panel copy
    at = np.flatnonzero((sl.eff_ic > 1) & (props["shared_l3"] == 0))
    dram[at] += (sl.eff_ic[at] - 1) * (k[at] * n[at] * width[at])
    # partial C copies, written and read back once per extra pc way
    at = np.flatnonzero(sl.eff_pc > 1)
    dram[at] += (sl.eff_pc[at] - 1) * 2.0 * batch.m[at] * n[at] * width[at]
    # each extra socket's L3 streams its own B panel over the link
    at = np.flatnonzero(sl.spanned > 1)
    dram[at] += (
        (sl.spanned[at] - 1) * k[at] * n[at] * width[at]
        * props["penalty"][at]
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

    One obs profile event covers the whole batch — a single
    ``batch.grid`` span with a ``candidates`` count plus the
    ``model.candidates_evaluated`` counter, never one event per
    candidate.  Internal callers that already emit their own profile
    record (``gemm_time_model``, ``parallel_gemm_breakdown``) pass
    ``profile=False``.
    """
    prof = obs_profile.ACTIVE if profile else None
    started = time.perf_counter() if prof is not None else None  # det: ok DET101 (wall profiling span)
    breakdown = _grid_breakdown(batch)
    if prof is not None:
        prof.record_batch("grid", len(batch), started=started)
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
