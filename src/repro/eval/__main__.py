"""Regenerate the paper's full evaluation: ``python -m repro.eval [outdir]``.

The equivalent of the artifact's ``build_and_execute_all.sh`` +
``do_plots.sh``: runs every experiment (Figures 13-18, Tables I/II) and
writes one text report per figure into the output directory (default
``results/``), plus a SUMMARY.txt with the headline findings.

``--isa NAME`` retargets the evaluation to another registered backend
(``rvv128``, ``rvv256``, ``avx512``, or the 2-socket ``numa2s``
server): the hand-written ARM baselines do not exist there, so the
report is the generated-family solo sweep, the square-GEMM sweep with
model-driven kernel selection, and the cross-ISA portability table.

``--threads N`` adds the multi-core execution model: a thread-scaling
figure for the target machine (1..N threads, jc/ic/pc partition choice
and modelled GFLOPS per count — spilling onto the second socket on a
multi-socket machine) plus threaded variants of the ResNet50 and VGG16
end-to-end sweeps (see ``docs/parallel.md``).

``--use-tuned`` activates the persistent tune cache and dispatches each
DNN layer's kernel through the tuned winners (the same per-layer path
``python -m repro.serve`` prices batched requests with); figures 15/17
gain an ``exo_kernel`` column recording the choice.

``--trace PATH`` / ``--metrics PATH`` activate the observability layer
(:mod:`repro.obs`): one wall-clock span per figure phase, one Chrome
trace event per modelled GEMM (partition label, pc ways, cycle
components), and counters/histograms of the timing-model traffic.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from repro import obs as obslib
from repro.obs import profile as obs_profile
from repro.workloads.resnet50 import RESNET50_LAYERS
from repro.workloads.vgg16 import VGG16_LAYERS

from .figures import bar_chart
from .harness import (
    default_context,
    fig13_solo_data,
    fig14_square_data,
    fig15_resnet_layer_data,
    fig16_resnet_time_data,
    fig17_vgg_layer_data,
    fig18_vgg_time_data,
    machine_context,
    portability_solo_data,
    solo_sweep_data,
    thread_counts_up_to,
    thread_scaling_data,
    threaded_instance_time_data,
)
from .report import render_table, winners

CONFIGS = ["ALG+NEON", "ALG+BLIS", "BLIS", "ALG+EXO"]

log = obslib.get_logger("eval")


def _write(outdir: Path, name: str, text: str) -> None:
    path = outdir / name
    path.write_text(text + "\n")
    log.info(f"  wrote {path}")


def _span(obs, name: str):
    """A wall-clock span for one figure phase, or a no-op when off."""
    if obs is not None and obs.tracer.enabled:
        return obs.tracer.span(name, cat="eval")
    return nullcontext()


def run_threaded_eval(
    ctx, isa: str, threads: int, outdir: Path, use_tuned: bool = False,
    obs=None,
) -> list:
    """The multi-core figures: thread scaling + threaded DNN sweeps.

    Returns the summary lines to fold into the run's SUMMARY file.
    """
    from repro.workloads.resnet50 import resnet50_instances
    from repro.workloads.vgg16 import vgg16_instances

    log.info(f"Thread scaling (1..{threads} threads)...")
    with _span(obs, "thread_scaling"):
        rows = thread_scaling_data(ctx, max_threads=threads)
    text = render_table(
        rows, title=f"Thread scaling — {ctx.machine.name}"
    )
    text += "\n\n" + bar_chart(
        rows, x="threads", series=["GFLOPS"], unit=" GF"
    )
    _write(outdir, f"threads_{isa}_scaling.txt", text)
    top = rows[-1]
    lines = [
        f"threads: {top['threads']} cores -> {top['speedup']:.1f}x "
        f"({top['GFLOPS']:.1f} GFLOPS, partition {top['partition']})"
    ]

    counts = thread_counts_up_to(threads)
    log.info("Threaded ResNet50 / VGG16 end-to-end sweeps...")
    workloads = (
        ("resnet50", resnet50_instances()),
        ("vgg16", vgg16_instances()),
    )
    for name, instances in workloads:
        with _span(obs, f"threads_{name}"):
            wrows = threaded_instance_time_data(
                instances, ctx, counts, use_tuned=use_tuned
            )
        final = wrows[-1]
        _write(
            outdir, f"threads_{isa}_{name}_time.txt",
            render_table(
                wrows,
                title=f"{name} cumulative ALG+EXO time (s) by thread "
                f"count — {ctx.machine.name}",
            ),
        )
        last = f"t{counts[-1]}"
        lines.append(
            f"{name}: {final['t1']:.4f}s at 1 thread -> "
            f"{final[last]:.4f}s at {counts[-1]}"
        )
    return lines


def run_isa_eval(
    isa: str, outdir: Path, threads: int = 1, use_tuned: bool = False,
    obs=None,
) -> int:
    """The retargeted evaluation for one non-default backend."""
    from repro import tune
    from repro.isa.targets import target

    t = target(isa)
    ctx = machine_context(t.machine)
    summary = [f"ISA {isa} on {t.machine.name} "
               f"(peak {t.machine.peak_gflops():.1f} GFLOPS)"]

    log.info(f"Solo sweep ({isa} generated family)...")
    with _span(obs, f"solo_{isa}"):
        rows = solo_sweep_data(ctx)
    text = render_table(
        rows, title=f"Solo-mode GFLOPS — {t.machine.name}"
    )
    text += "\n\n" + bar_chart(rows, x="shape", series=["GFLOPS"], unit=" GF")
    _write(outdir, f"isa_{isa}_solo.txt", text)
    best = max(rows, key=lambda r: r["GFLOPS"])
    summary.append(
        f"solo: best {best['shape']} at {best['GFLOPS']:.1f} GFLOPS "
        f"({100 * best['peak_frac']:.0f}% of peak)"
    )

    log.info("Square GEMM sweep via repro.tune (cached kernel selection)...")
    cache = tune.TuneCache(tune.default_cache_root())
    with _span(obs, f"square_{isa}"):
        artifact = tune.sweep((isa,), tune.DEFAULT_SQUARES, cache=cache)
    sq_rows = []
    for m, n, k in tune.DEFAULT_SQUARES:
        (mr, nr), entry = tune.best_kernel(artifact, isa, m, n, k)
        sq_rows.append(
            {"size": m, "kernel": f"{mr}x{nr}", "GFLOPS": entry["gflops"]}
        )
    _write(
        outdir, f"isa_{isa}_square.txt",
        render_table(
            sq_rows, title=f"Square GEMM GFLOPS — {t.machine.name}"
        ),
    )
    tune.save_artifact(artifact, outdir / f"tune_{isa}.json")
    log.info(f"  tune cache: {cache.hits} hits, {cache.misses} misses "
             f"({cache.root})")
    summary.append(
        f"square: {sq_rows[-1]['GFLOPS']:.1f} GFLOPS at 2048 "
        f"with kernel {sq_rows[-1]['kernel']}"
    )

    if threads > 1:
        summary.extend(
            run_threaded_eval(
                ctx, isa, threads, outdir, use_tuned=use_tuned, obs=obs
            )
        )

    log.info("Cross-ISA portability table...")
    with _span(obs, "portability"):
        port = portability_solo_data(
            tuple(dict.fromkeys(("neon", "rvv128", "rvv256", isa)))
        )
    _write(
        outdir, "portability.txt",
        render_table(port, title="Generated main kernel, fraction of peak"),
    )
    fracs = {r["isa"]: r["peak_frac"] for r in port}
    summary.append(
        "portability: "
        + ", ".join(f"{k} {100 * v:.0f}%" for k, v in fracs.items())
    )

    _write(outdir, f"SUMMARY_{isa}.txt", "\n".join(summary))
    log.info("\n".join(summary))
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"wants a positive integer, got {text!r}"
        )
    return value


def _parse_args(argv) -> argparse.Namespace:
    from repro.isa.targets import ISA_TARGETS

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "outdir",
        nargs="?",
        default="results",
        help="report directory (default results/)",
    )
    parser.add_argument(
        "--isa",
        default="neon",
        type=str.lower,
        choices=sorted(ISA_TARGETS),
        help="retarget to a registered backend (default neon)",
    )
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        metavar="N",
        help="add the multi-core figures for 1..N threads",
    )
    parser.add_argument(
        "--use-tuned",
        action="store_true",
        help="dispatch each ResNet-50/VGG16 layer's kernel through the "
        "persistent tune cache's winners",
    )
    parser.add_argument(
        "--tune-cache",
        default=None,
        metavar="PATH",
        help="tune cache root for --use-tuned (default out/tunecache)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON (figure-phase spans + one "
        "event per modelled GEMM)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the metrics registry as JSON (+ .prom text format)",
    )
    obslib.add_logging_args(parser)
    args = parser.parse_args(argv)
    if args.tune_cache is not None and not args.use_tuned:
        parser.error("--tune-cache requires --use-tuned")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:  # argparse: --help (0) or bad input (2)
        return exc.code
    obslib.configure_from_args(args)
    if args.use_tuned:
        from repro import tune

        cache = tune.activate(
            tune.TuneCache(args.tune_cache or tune.default_cache_root())
        )
        log.info(f"per-layer dispatch: tuned (cache {cache.root})")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    obs = obslib.obs_from_cli(args.trace, args.metrics)
    if obs is None:
        return _run(args.isa, outdir, args.threads, args.use_tuned, None)
    profiler = obslib.GemmProfiler(tracer=obs.tracer, metrics=obs.metrics)
    with obs_profile.using(profiler):
        rc = _run(args.isa, outdir, args.threads, args.use_tuned, obs)
    obs.metrics.counter(
        "eval.gemm_profile_records",
        help="modelled GEMMs captured by the profiler",
    ).inc(len(profiler.records))
    for path in obs.write_outputs():
        log.info(f"wrote {path}")
    return rc


def _run(isa: str, outdir: Path, threads: int, use_tuned: bool, obs) -> int:
    """The evaluation proper, after flag parsing and obs setup."""
    if isa != "neon":
        return run_isa_eval(
            isa, outdir, threads=threads, use_tuned=use_tuned, obs=obs
        )
    ctx = default_context()
    t0 = time.time()  # det: ok DET101 (CLI wall-time summary)
    summary = []

    log.info("Figure 13 (solo-mode micro-kernels)...")
    with _span(obs, "fig13_solo"):
        rows = fig13_solo_data(ctx=ctx)
    text = render_table(rows, title="Figure 13 — solo-mode GFLOPS")
    text += "\n\n" + bar_chart(
        rows, x="shape", series=["NEON", "BLIS", "EXO"], unit=" GF"
    )
    _write(outdir, "fig13_solo.txt", text)
    summary.append(
        f"Fig 13: 8x12 NEON/BLIS/EXO = {rows[0]['NEON']:.1f}/"
        f"{rows[0]['BLIS']:.1f}/{rows[0]['EXO']:.1f} GFLOPS; EXO wins all "
        f"edge cases (4x4 by {rows[1]['EXO'] / rows[1]['BLIS']:.1f}x)"
    )

    log.info("Figure 14 (square GEMM sweep)...")
    with _span(obs, "fig14_square"):
        rows = fig14_square_data(ctx=ctx)
    text = render_table(
        rows, columns=["size", *CONFIGS, "exo_kernel"],
        title="Figure 14 — square GEMM GFLOPS",
    )
    _write(outdir, "fig14_square.txt", text)
    summary.append(
        f"Fig 14: BLIS best at every size "
        f"({rows[-1]['BLIS']:.1f} GF at 5000); ALG+EXO leads the ALG+ group"
    )

    log.info("Tables I and II (IM2ROW dimensions)...")
    table1 = [
        {"layer": lyr.layer_id, "instances": lyr.instances, "m": lyr.m,
         "n": lyr.n, "k": lyr.k} for lyr in RESNET50_LAYERS
    ]
    table2 = [
        {"layer": lyr.layer_id, "instances": lyr.instances, "m": lyr.m,
         "n": lyr.n, "k": lyr.k} for lyr in VGG16_LAYERS
    ]
    _write(
        outdir, "tables.txt",
        render_table(table1, title="Table I — ResNet50 v1.5 GEMMs")
        + "\n\n" + render_table(table2, title="Table II — VGG16 GEMMs"),
    )

    layer_cols = ["layer", "m", "n", "k", *CONFIGS]
    if use_tuned:
        layer_cols.append("exo_kernel")

    log.info("Figure 15 (ResNet50 per-layer GFLOPS)...")
    with _span(obs, "fig15_resnet_layers"):
        rows = fig15_resnet_layer_data(ctx=ctx, use_tuned=use_tuned)
    text = render_table(
        rows, columns=layer_cols,
        title="Figure 15 — ResNet50 v1.5 per-layer GFLOPS",
    )
    text += "\n\n" + bar_chart(rows, x="layer", series=CONFIGS, unit=" GF")
    _write(outdir, "fig15_resnet_layers.txt", text)
    wins = winners(rows, CONFIGS)
    summary.append(
        f"Fig 15: ALG+EXO best on {wins.count('ALG+EXO')}/20 layers "
        f"(paper: 9/20), BLIS on {wins.count('BLIS')} (paper: 6)"
    )

    log.info("Figure 16 (ResNet50 aggregated time)...")
    with _span(obs, "fig16_resnet_time"):
        rows = fig16_resnet_time_data(ctx=ctx, use_tuned=use_tuned)
    final = rows[-1]
    text = render_table(
        rows, columns=["layer_number", *CONFIGS],
        title="Figure 16 — cumulative ResNet50 time (s)",
    )
    _write(outdir, "fig16_resnet_time.txt", text)
    order = sorted(CONFIGS, key=lambda c: final[c])
    summary.append(
        "Fig 16: finishing order " + " < ".join(order)
        + f" ({final[order[0]]:.4f}s best)"
    )

    log.info("Figure 17 (VGG16 per-layer GFLOPS)...")
    with _span(obs, "fig17_vgg_layers"):
        rows = fig17_vgg_layer_data(ctx=ctx, use_tuned=use_tuned)
    text = render_table(
        rows, columns=layer_cols,
        title="Figure 17 — VGG16 per-layer GFLOPS",
    )
    text += "\n\n" + bar_chart(rows, x="layer", series=CONFIGS, unit=" GF")
    _write(outdir, "fig17_vgg_layers.txt", text)
    wins = winners(rows, CONFIGS)
    summary.append(
        f"Fig 17: ALG+EXO best on {wins.count('ALG+EXO')}/9 layers, "
        f"BLIS on {wins.count('BLIS')}"
    )

    log.info("Figure 18 (VGG16 aggregated time)...")
    with _span(obs, "fig18_vgg_time"):
        rows = fig18_vgg_time_data(ctx=ctx, use_tuned=use_tuned)
    final = rows[-1]
    text = render_table(
        rows, columns=["layer_number", *CONFIGS],
        title="Figure 18 — cumulative VGG16 time (s)",
    )
    _write(outdir, "fig18_vgg_time.txt", text)
    summary.append(
        f"Fig 18: ALG+EXO {final['ALG+EXO']:.4f}s vs BLIS "
        f"{final['BLIS']:.4f}s — close, as the paper reports"
    )

    if threads > 1:
        summary.extend(
            run_threaded_eval(
                ctx, "neon", threads, outdir, use_tuned=use_tuned, obs=obs
            )
        )
    if use_tuned:
        summary.append(
            "per-layer dispatch: tuned winners via the active tune cache"
        )

    elapsed = time.time() - t0  # det: ok DET101 (CLI wall-time summary)
    summary.append(f"\nregenerated in {elapsed:.1f}s (modelled Carmel core)")
    _write(outdir, "SUMMARY.txt", "\n".join(summary))
    log.info("\n".join(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
