"""Parallel evaluation of tune jobs over a process pool.

Each job is one modelled GEMM with one candidate main tile, serial or
threaded.  A chunk's jobs are priced together, in grid batches over
every candidate thread partition — a serial job is the one-slice grid
(:func:`evaluate_candidates`).  Jobs travel
to workers as plain tuples and come back as plain JSON records, so the
pool never pickles procedures, traces, or machine models; each worker
process builds its evaluation context per ISA on first use (the
memoized :func:`repro.eval.harness.machine_context` of the target's
machine).  On Linux the pool forks, so kernels already generated in the
parent are inherited for free.

Jobs are *chunked* per ISA before submission — one future per chunk —
to amortize inter-process overhead, and results are written back by job
index, so the output order is exactly the input order no matter which
worker finishes first.

The module counts every breakdown evaluation in
:func:`breakdown_calls`; a warm-cache run must leave the counter
untouched (the executor returns before a pool is even created when
every job hits the cache).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import Obs

from .cache import TuneCache, cache_key, record_from_breakdown
from .space import TuneJob

#: chunks submitted per worker (per ISA group) — small enough to balance
#: load across workers, large enough to amortize submission overhead
CHUNKS_PER_WORKER = 2

_breakdown_calls = 0


def breakdown_calls() -> int:
    """Modelled-timing evaluations performed through the tune executor.

    Counts in-process evaluations plus, for parallel runs, evaluations
    performed on this process's behalf by pool workers (credited as
    their chunks complete).  A warm-cache run leaves the counter at
    zero.  Direct harness calls made outside the executor — e.g. a
    serial ``select_kernel_for`` without an active cache, or the CLI's
    ``--verify`` cross-check — are deliberately not counted.
    """
    return _breakdown_calls


def reset_breakdown_calls() -> None:
    global _breakdown_calls
    _breakdown_calls = 0


def evaluate_candidates(
    isa: str, specs: Sequence[Tuple[int, int, int, int, int, int]]
) -> List[Dict[str, float]]:
    """Evaluate many ``(mr, nr, m, n, k, threads)`` specs at once.

    Every spec becomes one :class:`repro.sim.parallel.GridRequest` over
    its candidate jc x ic x pc grids (``[(1, 1, 1)]`` for a serial
    spec), and **one** :func:`repro.sim.parallel.price_grid_requests`
    call ranks them all in grid batches bounded by its thread-slice
    budget, with one plane-cost memo local to the call: plan selection
    depends only on the plane and the kernel tile.  The records are
    bit-identical to per-spec ``exo_gemm_breakdown`` /
    ``exo_parallel_breakdown`` calls (a one-slice grid is the serial
    model), just far cheaper per candidate.  Records come back in spec
    order, ready for per-candidate cache keys.
    """
    global _breakdown_calls
    from repro.blis.params import analytical_tile_params, clamp_tiles
    from repro.eval.harness import machine_context, plane_chunk_plans
    from repro.isa.targets import target
    from repro.sim import vectorized as vec
    from repro.sim.memory import GemmShape
    from repro.sim.parallel import (
        GridRequest,
        candidate_grids,
        price_grid_requests,
    )

    ctx = machine_context(target(isa).machine)
    machine = ctx.machine
    tile_memo: Dict[Tuple[int, int], object] = {}
    # (mr, nr, m_plane, n_plane) -> plan_costs array
    plan_cost_memo: Dict[Tuple[int, int, int, int], tuple] = {}

    def plane_costs(spec: int, m_p: int, n_p: int):
        mr, nr = specs[spec][0], specs[spec][1]
        key = (mr, nr, m_p, n_p)
        if key not in plan_cost_memo:
            plan_cost_memo[key] = vec.plan_costs(
                plane_chunk_plans(ctx, m_p, n_p, mr, nr), ctx.model
            )
        return plan_cost_memo[key]

    requests = []
    for mr, nr, m, n, k, threads in specs:
        if (mr, nr) not in tile_memo:
            tile_memo[(mr, nr)] = analytical_tile_params(mr, nr, machine)
        tiles = clamp_tiles(tile_memo[(mr, nr)], m, n, k)
        grids = candidate_grids(
            threads, m, n, machine, mr, nr, k=k, kc=tiles.kc
        )
        requests.append(
            GridRequest(machine, GemmShape(m, n, k), tiles, threads, grids)
        )
    breakdowns = price_grid_requests(requests, plane_costs)
    _breakdown_calls += len(specs)
    return [record_from_breakdown(b) for b in breakdowns]


def _evaluate_chunk(
    isa: str, tiles: Sequence[Tuple[int, int, int, int, int, int]]
) -> Tuple[float, List[Dict[str, float]]]:
    """One worker-side chunk: (busy seconds, records in spec order).

    The worker times itself so the parent can report true worker busy
    time (and so utilization) without clock skew between processes.
    """
    t0 = time.perf_counter()  # det: ok DET101 (worker busy-time metric)
    records = evaluate_candidates(isa, tiles)
    return time.perf_counter() - t0, records  # det: ok DET101 (worker busy-time metric)


def _chunk_indices(
    pending: Sequence[int], jobs: Sequence[TuneJob], workers: int
) -> List[Tuple[str, List[int]]]:
    """Split pending job indices into per-ISA chunks, preserving order."""
    groups: Dict[str, List[int]] = {}
    for i in pending:
        groups.setdefault(jobs[i].isa, []).append(i)
    chunks: List[Tuple[str, List[int]]] = []
    for isa, indices in groups.items():
        size = max(1, math.ceil(len(indices) / (workers * CHUNKS_PER_WORKER)))
        for start in range(0, len(indices), size):
            chunks.append((isa, indices[start : start + size]))
    return chunks


def run_jobs(
    jobs: Sequence[TuneJob],
    workers: int = 0,
    cache: Optional[TuneCache] = None,
    obs: Optional[Obs] = None,
) -> List[Dict[str, float]]:
    """Evaluate every job, returning records in job order.

    Cached jobs are answered without any evaluation; the remainder run
    serially in-process (``workers <= 1``) or across a process pool, and
    each chunk's records are appended to the cache in one ``put`` as the
    chunk lands (so an interrupted sweep resumes).

    Both paths evaluate whole chunks at a time through
    :func:`evaluate_candidates` — every job rides the vectorized
    batch engine — and ``obs`` instruments the run with per-chunk
    spans (one ``chunk <isa>`` span carrying the job count; parallel
    runs place one trace track per chunk by the worker's self-reported
    busy time), job counters, and — for pool runs — a
    ``tune.worker_utilization`` gauge (aggregate worker busy seconds
    over ``workers x`` pool wall seconds).
    """
    from repro.isa.targets import target

    results: List[Optional[Dict[str, float]]] = [None] * len(jobs)
    keys = [None] * len(jobs)
    pending: List[int] = []
    for i, job in enumerate(jobs):
        if cache is not None:
            keys[i] = cache_key(
                target(job.isa).machine,
                job.tile,
                job.problem,
                threads=job.threads,
            )
            record = cache.get(keys[i])
            if record is not None:
                results[i] = record
                continue
        pending.append(i)
    if obs is not None:
        obs.metrics.counter(
            "tune.jobs_total", help="candidate evaluations requested"
        ).inc(len(jobs))
        obs.metrics.counter(
            "tune.jobs_cached", help="jobs answered by the timing cache"
        ).inc(len(jobs) - len(pending))
        obs.metrics.counter(
            "tune.jobs_evaluated", help="jobs that ran the timing model"
        ).inc(len(pending))
    if not pending:
        return results

    if workers and workers > 1:
        chunks = _chunk_indices(pending, jobs, workers)
        busy_s = 0.0
        pool_t0 = time.perf_counter()  # det: ok DET101 (worker busy-time metric)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            chunk_ids = {}
            for chunk_id, (isa, indices) in enumerate(chunks):
                specs = [
                    (
                        jobs[i].mr,
                        jobs[i].nr,
                        jobs[i].m,
                        jobs[i].n,
                        jobs[i].k,
                        jobs[i].threads,
                    )
                    for i in indices
                ]
                future = pool.submit(_evaluate_chunk, isa, specs)
                futures[future] = indices
                chunk_ids[future] = (chunk_id, isa)
            global _breakdown_calls
            for future in as_completed(futures):
                # persist each chunk as it lands, so an interrupted
                # cold sweep resumes instead of starting over
                elapsed_s, records = future.result()
                busy_s += elapsed_s
                for i, record in zip(futures[future], records):
                    results[i] = record
                if cache is not None:
                    cache.put(zip((keys[i] for i in futures[future]), records))
                # credit the worker's evaluations to this process's
                # counter, so the CLI stats stay truthful under -j
                _breakdown_calls += len(futures[future])
                if obs is not None and obs.tracer.enabled:
                    chunk_id, isa = chunk_ids[future]
                    now = obs.tracer.clock.now_us()
                    obs.tracer.complete(
                        f"chunk {isa}",
                        ts_us=max(0.0, now - elapsed_s * 1e6),
                        dur_us=elapsed_s * 1e6,
                        tid=chunk_id + 1,
                        cat="tune",
                        args={"jobs": len(futures[future]), "isa": isa},
                    )
        if obs is not None:
            wall_s = time.perf_counter() - pool_t0  # det: ok DET101 (worker busy-time metric)
            obs.metrics.gauge(
                "tune.worker_utilization",
                help="worker busy seconds / (workers x pool wall seconds)",
            ).set(min(1.0, busy_s / (workers * wall_s)) if wall_s else 0.0)
    else:
        # group by ISA so each group becomes one batched evaluation,
        # preserving job order within the group (and overall, since
        # results are written back by index)
        groups: Dict[str, List[int]] = {}
        for i in pending:
            groups.setdefault(jobs[i].isa, []).append(i)
        for isa, indices in groups.items():
            if obs is not None and obs.tracer.enabled:
                span = obs.tracer.span(
                    f"chunk {isa}", cat="tune", args={"jobs": len(indices)}
                )
            else:
                span = None
            with span if span is not None else nullcontext():
                records = evaluate_candidates(
                    isa,
                    [
                        (
                            jobs[i].mr,
                            jobs[i].nr,
                            jobs[i].m,
                            jobs[i].n,
                            jobs[i].k,
                            jobs[i].threads,
                        )
                        for i in indices
                    ],
                )
            for i, record in zip(indices, records):
                results[i] = record
            if cache is not None:
                cache.put(zip((keys[i] for i in indices), records))
    return results
