"""Parallel autotuning over the generated-kernel search space.

The subsystem behind ``python -m repro.tune``: expand (machine x
register-tile family x GEMM shape set) into candidate jobs
(:mod:`repro.tune.space`), evaluate them across worker processes
(:mod:`repro.tune.executor`), persist every modelled timing in an
on-disk cache of per-ISA logs (:mod:`repro.tune.cache`), and distill the
per-(machine, shape) winners into a JSON artifact that the eval harness
and benchmarks consume instead of re-ranking candidates inline.

:func:`sweep` is the library entry point; winners agree with the serial
``select_kernel_for`` by construction, because both rank the same
enumeration with the same ``(total_cycles, tile area, tile)`` order.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from .cache import (
    MODEL_VERSION,
    TuneCache,
    TunedBreakdown,
    activate,
    active_cache,
    breakdown_from_record,
    cache_key,
    deactivate,
    default_cache_root,
    record_from_breakdown,
    using,
)
from .executor import breakdown_calls, reset_breakdown_calls, run_jobs
from .space import (
    DEFAULT_SQUARES,
    TuneJob,
    candidate_tiles,
    enumerate_space,
    enumerate_tiles,
    fallback_tile,
    parse_threads,
    problem_set,
    rank_key,
    resolve_isas,
)

__all__ = [
    "DEFAULT_SQUARES",
    "MODEL_VERSION",
    "TuneCache",
    "TuneJob",
    "TunedBreakdown",
    "activate",
    "active_cache",
    "best_kernel",
    "breakdown_calls",
    "breakdown_from_record",
    "cache_key",
    "candidate_tiles",
    "deactivate",
    "default_cache_root",
    "enumerate_space",
    "enumerate_tiles",
    "fallback_tile",
    "load_artifact",
    "parse_threads",
    "problem_set",
    "rank_key",
    "record_from_breakdown",
    "reset_breakdown_calls",
    "resolve_isas",
    "run_jobs",
    "save_artifact",
    "sweep",
    "using",
]

#: human-readable form of :func:`repro.tune.space.rank_key`, recorded
#: in artifacts so a reader knows how winners were ordered
RANK = "(total_cycles, mr * nr, (mr, nr))"


def _problem_id(m: int, n: int, k: int, threads: int = 1) -> str:
    """Artifact key for one problem: serial entries keep the historical
    ``MxNxK`` spelling; threaded entries append ``@tN``."""
    base = f"{m}x{n}x{k}"
    return base if threads == 1 else f"{base}@t{threads}"


def sweep(
    isas: Iterable[str],
    problems: Iterable[Tuple[int, int, int]],
    workers: int = 0,
    cache: Optional[TuneCache] = None,
    threads: Union[str, Iterable[int]] = (1,),
    obs=None,
) -> dict:
    """Tune every (machine, problem, thread count) and return the winner
    artifact.

    The artifact is plain JSON data::

        {"model_version": ..., "threads": [...], "machines": {isa: {
            "machine": name, "vlen": bits,
            "best": {"MxNxK":    {"kernel": [mr, nr], ...},
                     "MxNxK@t4": {"kernel": [mr, nr], "threads": 4,
                                  ...}}}}}

    Serial winners keep their historical keys, so artifacts tuned with
    ``threads=(1,)`` are byte-compatible consumers' expectations.  When
    a cache is active, the artifact additionally records its hit/miss/
    invalidation counters (``cache_hits``/``cache_misses``/
    ``cache_invalidations`` — this sweep's deltas, so a warm sweep
    reads all-hits even on a shared cache object).  ``obs`` forwards an
    observability bundle to :func:`repro.tune.executor.run_jobs`.

    Every enumerated candidate's generated kernel must pass the static
    verifier (:func:`repro.analysis.filter_verified_jobs`); failing tiles
    are dropped before evaluation — a malformed kernel can never be priced
    or win a sweep — and recorded in the artifact under
    ``rejected_tiles`` (absent when nothing was rejected, keeping
    clean artifacts byte-identical to pre-verification ones).
    """
    from repro import obs as obslib
    from repro.analysis import filter_verified_jobs
    from repro.isa.targets import target

    thread_axis = parse_threads(threads)
    jobs = enumerate_space(isas, problems, threads=thread_axis)
    jobs, rejected = filter_verified_jobs(jobs)
    log = obslib.get_logger("tune")
    for (isa, mr, nr), report in sorted(rejected.items()):
        log.error(
            f"rejected candidate {isa} {mr}x{nr}: kernel fails "
            f"verification ({', '.join(report.codes)})"
        )
    stats_before = cache.stats() if cache is not None else None
    records = run_jobs(jobs, workers=workers, cache=cache, obs=obs)

    Slot = Tuple[str, Tuple[int, int, int], int]
    best: Dict[Slot, tuple] = {}
    counts: Dict[Slot, int] = {}
    for job, record in zip(jobs, records):
        slot = (job.isa, job.problem, job.threads)
        counts[slot] = counts.get(slot, 0) + 1
        rank = rank_key(record["total_cycles"], job.tile)
        if slot not in best or rank < best[slot][0]:
            best[slot] = (rank, job, record)

    machines: Dict[str, dict] = {}
    for (isa, problem, nthreads), (_, job, record) in best.items():
        if isa not in machines:
            t = target(isa)
            machines[isa] = {
                "machine": t.machine.name,
                "vlen": t.machine.vector_bits,
                "best": {},
            }
        entry = {
            "kernel": list(job.tile),
            "total_cycles": record["total_cycles"],
            "gflops": record["gflops"],
            "seconds": breakdown_from_record(record).seconds,
            "candidates": counts[(isa, problem, nthreads)],
        }
        if nthreads != 1:
            entry["threads"] = nthreads
        machines[isa]["best"][_problem_id(*problem, nthreads)] = entry
    artifact = {
        "model_version": MODEL_VERSION,
        "rank": RANK,
        "threads": list(thread_axis),
        "machines": machines,
    }
    if rejected:
        artifact["rejected_tiles"] = {
            f"{isa}:{mr}x{nr}": list(report.codes)
            for (isa, mr, nr), report in sorted(rejected.items())
        }
    if cache is not None:
        artifact.update(
            {
                key: value - stats_before[key]
                for key, value in cache.stats().items()
            }
        )
    return artifact


def best_kernel(
    artifact: dict, isa: str, m: int, n: int, k: int, threads: int = 1
) -> Tuple[Tuple[int, int], dict]:
    """The tuned winner for one (machine, problem, thread count)."""
    entry = artifact["machines"][isa]["best"][_problem_id(m, n, k, threads)]
    mr, nr = entry["kernel"]
    return (mr, nr), entry


def save_artifact(artifact: dict, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=1, sort_keys=True) + "\n")
    return path


def load_artifact(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text())
