"""Autotune CLI: ``python -m repro.tune --machines all --workers 4``.

Expands the candidate space for the selected machines and shape set,
evaluates it across worker processes with the persistent timing cache,
prints one best-kernel table per machine, and writes the winner artifact
(default ``out/tune_results.json``) that ``python -m repro.eval`` and
the benchmarks consume instead of re-ranking candidates inline.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import obs as obslib
from repro.eval.report import render_table

from . import best_kernel, save_artifact, sweep
from .cache import TuneCache, default_cache_root
from .executor import breakdown_calls, reset_breakdown_calls
from .space import parse_threads, problem_set, resolve_isas

log = obslib.get_logger("tune")


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="Parallel model-driven micro-kernel tuning.",
    )
    parser.add_argument(
        "--machines",
        default="all",
        help="comma-separated ISA target names, or 'all' (default)",
    )
    parser.add_argument(
        "--shapes",
        default="square",
        help="'square' (default), 'dnn', 'all', or explicit MxNxK[,...]",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; <=1 evaluates serially in-process",
    )
    parser.add_argument(
        "--threads",
        default="1",
        help="comma-separated GEMM thread counts to tune for, e.g. "
        "1,2,4,8 (default 1: the serial model)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"timing cache root (default {default_cache_root()})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="evaluate everything, neither reading nor writing the cache",
    )
    parser.add_argument(
        "--out",
        default="out/tune_results.json",
        help="winner-artifact path (default out/tune_results.json)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="cross-check every winner: serial ones against "
        "select_kernel_for, threaded ones against a fresh "
        "exo_parallel_breakdown",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON (+ .jsonl event log) of "
        "the sweep: per-job/per-chunk spans on the wall clock",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the metrics registry as JSON (+ .prom text format)",
    )
    obslib.add_logging_args(parser)
    return parser.parse_args(argv)


def _verify(artifact, isas, problems, thread_axis) -> int:
    """Cross-check every winner; returns the number of mismatches.

    Serial winners are re-ranked through ``select_kernel_for``; each
    threaded ``MxNxK@tN`` winner's stored ``total_cycles`` must equal a
    fresh one-GEMM ``exo_parallel_breakdown`` of its tile.  Both halves
    price through the one production engine
    (``sim/parallel.py::price_grid_requests``): the serial half checks
    the sweep's batching of it against ``select_kernel_for``'s batching,
    the threaded half against pricing the winner alone.  Neither is an
    independent model; the check against one is
    ``tests/test_tune.py::TestThreadedParity``, which compares the tune
    records with the scalar oracle of ``tests/parallel_oracle.py``.
    """
    from repro.eval.harness import exo_parallel_breakdown, machine_context
    from repro.isa.targets import target
    from repro.ukernel.registry import select_kernel_for

    mismatches = 0
    for isa in isas:
        machine = target(isa).machine
        for m, n, k in problems:
            for nthreads in thread_axis:
                tuned, entry = best_kernel(artifact, isa, m, n, k, nthreads)
                if nthreads == 1:
                    shape, _ = select_kernel_for(m, n, k, machine=machine)
                    if tuned != shape:
                        mismatches += 1
                        log.error(
                            f"MISMATCH {isa} {m}x{n}x{k}: "
                            f"tune={tuned} select_kernel_for={shape}"
                        )
                    continue
                fresh = exo_parallel_breakdown(
                    m, n, k, nthreads, ctx=machine_context(machine), main=tuned
                ).total_cycles
                if fresh != entry["total_cycles"]:
                    mismatches += 1
                    log.error(
                        f"MISMATCH {isa} {m}x{n}x{k}@t{nthreads} {tuned}: "
                        f"tune={entry['total_cycles']!r} "
                        f"exo_parallel_breakdown={fresh!r}"
                    )
    if mismatches == 0:
        if 1 in thread_axis:
            log.info(
                "verify: every winner agrees with serial select_kernel_for"
            )
        if any(nthreads != 1 for nthreads in thread_axis):
            log.info(
                "verify: every threaded winner's cycles match a fresh "
                "exo_parallel_breakdown"
            )
    return mismatches


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    obslib.configure_from_args(args)
    try:
        problems = problem_set(args.shapes)
        thread_axis = parse_threads(args.threads)
    except ValueError as exc:
        log.error(str(exc))
        return 2
    isas = [name.strip() for name in args.machines.split(",") if name.strip()]
    try:
        isa_names = resolve_isas(isas)
    except KeyError as exc:
        log.error(str(exc))
        return 2

    obs = obslib.obs_from_cli(args.trace, args.metrics)
    cache = None
    if not args.no_cache:
        cache = TuneCache(args.cache_dir or default_cache_root())
    reset_breakdown_calls()
    t0 = time.time()  # det: ok DET101 (CLI wall-time summary)
    if obs is not None:
        with obs.tracer.span(
            "sweep",
            cat="tune",
            args={
                "machines": ",".join(isa_names),
                "problems": len(problems),
                "workers": args.workers,
            },
        ):
            artifact = sweep(
                isa_names,
                problems,
                workers=args.workers,
                cache=cache,
                threads=thread_axis,
                obs=obs,
            )
    else:
        artifact = sweep(
            isa_names,
            problems,
            workers=args.workers,
            cache=cache,
            threads=thread_axis,
        )
    elapsed = time.time() - t0  # det: ok DET101 (CLI wall-time summary)

    for isa in isa_names:
        info = artifact["machines"][isa]
        rows = []
        for m, n, k in problems:
            for nthreads in thread_axis:
                suffix = "" if nthreads == 1 else f"@t{nthreads}"
                entry = info["best"][f"{m}x{n}x{k}{suffix}"]
                mr, nr = entry["kernel"]
                rows.append(
                    {
                        "shape": f"{m}x{n}x{k}",
                        "threads": nthreads,
                        "kernel": f"{mr}x{nr}",
                        "GFLOPS": entry["gflops"],
                        "candidates": entry["candidates"],
                    }
                )
        log.info(render_table(rows, title=f"{isa} — {info['machine']}"))
        log.info("")

    out = save_artifact(artifact, Path(args.out))
    n_jobs = sum(
        entry["candidates"]
        for info in artifact["machines"].values()
        for entry in info["best"].values()
    )
    stats = f"{n_jobs} candidates in {elapsed:.2f}s"
    if cache is not None:
        stats += (
            f"; cache {cache.root}: {cache.hits} hits, "
            f"{cache.misses} misses, {cache.invalidations} invalidations"
        )
    stats += f"; {breakdown_calls()} modelled evaluations"
    log.info(stats)
    log.info(f"wrote {out}")

    if obs is not None:
        if cache is not None:
            for name, value in cache.stats().items():
                obs.metrics.counter(
                    f"tune.{name}", help="tune cache counter"
                ).inc(value)
        obs.metrics.gauge(
            "tune.sweep_seconds", help="wall seconds of the sweep"
        ).set(elapsed)
        obs.metrics.counter(
            "tune.modelled_evaluations",
            help="timing-model evaluations this run",
        ).inc(breakdown_calls())
        for path in obs.write_outputs():
            log.info(f"wrote {path}")

    if args.verify:
        return 1 if _verify(artifact, isa_names, problems, thread_axis) else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
