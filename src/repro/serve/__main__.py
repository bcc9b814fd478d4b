"""Serving CLI: the offline planner and the live request plane.

Two entry points share this module:

* ``python -m repro.serve [outdir] ...`` — the offline **planner**:
  generate (or replay) an arrival trace, search replica x thread x
  batch configurations of the target machine for the best throughput
  under a p99 latency SLO, and write a deterministic JSON report plus
  a latency-throughput figure into the output directory (default
  ``results/``).  ``--replicas/--threads/--max-batch`` pin a single
  configuration instead of searching; ``--use-tuned`` activates the
  persistent tune cache so per-layer kernel dispatch follows the tuned
  winners (the same path as ``python -m repro.eval --use-tuned``).
* ``python -m repro.serve live ...`` — the **live plane**
  (``docs/serving.md``): an asyncio service with admission control
  over pluggable sim/real/mock controllers.  The sim controller runs
  the plane in virtual time on the exact cost model, so two identical
  runs produce byte-identical reports and traces; ``--http`` opens the
  stdlib HTTP front door on the wall clock.

Both accept the same ``--arrivals`` spellings (``synthetic``,
``diurnal:...``, ``mmpp:...``, or a CSV path).  Observability
(``docs/observability.md``): ``--trace out.trace.json`` writes a
Chrome trace-event file (plus a ``.jsonl`` event log) of the request
lifecycle; ``--metrics out.metrics.json`` writes the metrics registry
(JSON + Prometheus text) — on the live plane that includes the
``serve.live.admitted`` / ``serve.live.shed.*`` admission counters.
``--quiet`` silences progress; errors keep stderr and exit codes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import obs as obslib
from repro.isa.machine import MACHINES, machine_by_name
from repro.workloads import SERVABLE_MODELS

from .admission import AdmissionPolicy, parse_admission_spec
from .controllers import CONTROLLER_KINDS
from .placement import (
    Placement,
    evaluate_configuration,
    search_configurations,
)
from .plane import (
    PoolSpec,
    ServePlane,
    assign_models,
    live_report,
    run_http,
    run_trace,
)
from .report import build_report, latency_throughput_figure, save_report
from .timeline import timeline_for
from .traffic import trace_from_spec

log = obslib.get_logger("serve")


def parse_duration_ms(spec: str) -> float:
    """Parse ``50ms`` / ``0.05s`` / plain-number-of-ms SLO spellings."""
    text = spec.strip().lower()
    scale = 1.0
    if text.endswith("ms"):
        text = text[:-2]
    elif text.endswith("s"):
        text = text[:-1]
        scale = 1000.0
    try:
        value = float(text) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad duration {spec!r}: expected e.g. 50ms or 0.05s"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"duration must be positive, got {spec!r}"
        )
    return value


def _shared_options() -> argparse.ArgumentParser:
    """The options the planner and the live plane both take."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "outdir",
        nargs="?",
        default="results",
        help="report directory (default results/)",
    )
    parser.add_argument(
        "--machine",
        default="carmel",
        help=f"target machine (default carmel; known: {sorted(MACHINES)})",
    )
    parser.add_argument(
        "--model",
        default="resnet50",
        choices=SERVABLE_MODELS,
        help="model to serve (live: the default single pool's model; "
        "default resnet50)",
    )
    parser.add_argument(
        "--arrivals",
        default="synthetic",
        help="'synthetic' (default), 'diurnal:base=5,peak=50,...', "
        "'mmpp:rates=5:80,dwell=300,...', or a request_id,arrival_ms "
        "CSV path",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=15.0,
        help="synthetic arrival rate in requests/s (default 15)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=1000.0,
        help="trace duration in ms (default 1000)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="trace seed (live: also the request-mix seed; default 0)",
    )
    parser.add_argument(
        "--slo-p99",
        type=parse_duration_ms,
        default=50.0,
        metavar="DUR",
        help="p99 latency SLO, e.g. 50ms or 0.05s (default 50ms)",
    )
    parser.add_argument(
        "--max-wait",
        type=parse_duration_ms,
        default=2.0,
        metavar="DUR",
        help="batcher max wait time (default 2ms)",
    )
    parser.add_argument(
        "--use-tuned",
        action="store_true",
        help="activate the tune cache for per-layer kernel dispatch",
    )
    parser.add_argument(
        "--tune-cache",
        default=None,
        help="tune cache root for --use-tuned (default out/tunecache)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON (+ .jsonl event log) of "
        "the winning configuration, stamped in virtual sim time (live: "
        "of the request lifecycle)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the metrics registry as JSON (+ .prom text format; "
        "live: with the admitted/shed counters)",
    )
    obslib.add_logging_args(parser)
    return parser


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Request-level inference serving simulation on the "
        "threaded GEMM model.",
        parents=[_shared_options()],
    )
    parser.add_argument(
        "--batch-candidates",
        default="1,2,4,8",
        help="max-batch sizes the search tries (default 1,2,4,8)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=None,
        help="pin the replica count (requires --threads)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="pin threads per replica (requires --replicas)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="pin the batch-size cap (skips the batch search)",
    )
    return parser.parse_args(argv)


def _parse_live_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve live",
        description="Live asyncio serving plane with admission control "
        "over sim/real/mock controllers.",
        parents=[_shared_options()],
    )
    parser.add_argument(
        "--controller",
        default="sim",
        choices=CONTROLLER_KINDS,
        help="executor controller: sim = virtual-time cost model "
        "(deterministic), real = wall clock paced to the model, "
        "mock = scripted service times (default sim)",
    )
    parser.add_argument(
        "--pools",
        default=None,
        metavar="SPEC",
        help="replica pools as model=RxT[,model=RxT...], e.g. "
        "'resnet50=2x2,vgg16=1x4' (default: one pool of --model "
        "using every core)",
    )
    parser.add_argument(
        "--mix",
        default=None,
        metavar="SPEC",
        help="request mix weights as model=W[,model=W...] "
        "(default: equal across pools)",
    )
    parser.add_argument(
        "--admission",
        default=None,
        metavar="SPEC",
        help="admission gates: 'depth=N,deadline=DUR' or 'none' "
        "(default: deadline = --slo-p99, so infeasible load sheds)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=8,
        help="per-pool batch-size cap (default 8)",
    )
    parser.add_argument(
        "--mock-service",
        type=parse_duration_ms,
        default=1.0,
        metavar="DUR",
        help="mock controller service time per batch (default 1ms)",
    )
    parser.add_argument(
        "--http",
        default=None,
        metavar="HOST:PORT",
        help="serve the HTTP front door instead of injecting the trace "
        "(wall-clock controllers only); runs for --duration ms",
    )
    return parser.parse_args(argv)


def _parse_pools(args, machine) -> list:
    """Build the pool list from ``--pools`` (or the one-pool default)."""
    if args.pools is None:
        threads = max(1, machine.cores // 2)
        return [
            PoolSpec(
                model=args.model,
                replicas=2 if machine.cores >= 2 else 1,
                threads=threads,
                max_batch=args.max_batch,
                max_wait_ms=args.max_wait,
            )
        ]
    pools = []
    for part in args.pools.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part or "x" not in part.split("=", 1)[1]:
            raise ValueError(
                f"bad pool spec {part!r}: expected model=RxT, e.g. "
                "resnet50=2x2"
            )
        model, shape = (s.strip() for s in part.split("=", 1))
        if model not in SERVABLE_MODELS:
            raise ValueError(
                f"unknown model {model!r} in --pools; servable: "
                f"{list(SERVABLE_MODELS)}"
            )
        replicas_text, threads_text = shape.split("x", 1)
        pools.append(
            PoolSpec(
                model=model,
                replicas=int(replicas_text),
                threads=int(threads_text),
                max_batch=args.max_batch,
                max_wait_ms=args.max_wait,
            )
        )
    if not pools:
        raise ValueError(f"empty --pools spec {args.pools!r}")
    return pools


def _parse_mix(spec, pools) -> dict:
    """Build the request-mix weights from ``--mix`` (default: equal)."""
    if spec is None:
        return {pool.model: 1.0 for pool in pools}
    mix = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad mix spec {part!r}: expected model=WEIGHT"
            )
        model, weight = (s.strip() for s in part.split("=", 1))
        mix[model] = float(weight)
    pool_models = {pool.model for pool in pools}
    unknown = set(mix) - pool_models
    if unknown:
        raise ValueError(
            f"--mix names models without pools: {sorted(unknown)} "
            f"(pools: {sorted(pool_models)})"
        )
    return mix


def _live_main(argv) -> int:
    args = _parse_live_args(argv)
    obslib.configure_from_args(args)
    try:
        machine = machine_by_name(args.machine)
    except KeyError as exc:
        log.error(str(exc))
        return 2

    try:
        pools = _parse_pools(args, machine)
        mix = _parse_mix(args.mix, pools)
        if args.admission is None:
            admission = AdmissionPolicy(deadline_ms=args.slo_p99)
        else:
            admission = parse_admission_spec(
                args.admission, parse_duration_ms
            )
        trace, trace_info = trace_from_spec(
            args.arrivals,
            rate_rps=args.rate,
            duration_ms=args.duration,
            seed=args.seed,
        )
    except (OSError, ValueError, IndexError) as exc:
        log.error(str(exc))
        return 2

    if args.use_tuned:
        from repro import tune

        cache = tune.activate(
            tune.TuneCache(args.tune_cache or tune.default_cache_root())
        )
        log.info(f"per-layer dispatch: tuned (cache {cache.root})")

    timeline = timeline_for(args.controller)
    obs = obslib.obs_from_cli(
        args.trace, args.metrics, virtual_time=(timeline.kind == "virtual")
    )
    # the rolling-window monitor keys good/bad on the p99 SLO; its
    # snapshot lands in the report and serves GET /slo live
    slo = obslib.SloMonitor(threshold_ms=args.slo_p99)
    try:
        plane = ServePlane(
            machine,
            pools,
            timeline,
            controller=args.controller,
            admission=admission,
            use_tuned=args.use_tuned,
            obs=obs,
            mock_service_ms=args.mock_service,
            slo=slo,
        )
    except ValueError as exc:
        log.error(str(exc))
        return 2

    pool_text = ", ".join(
        f"{p.model}={p.replicas}x{p.threads}" for p in pools
    )
    log.info(
        f"live plane on {machine.name}: {pool_text}; controller "
        f"{args.controller}, admission {admission.describe()}"
    )
    try:
        if args.http is not None:
            host, _, port_text = args.http.partition(":")
            result = run_http(
                plane,
                host=host or "127.0.0.1",
                port=int(port_text or 0),
                duration_ms=args.duration,
                ready=lambda bound: log.info(
                    f"listening on http://{bound[0]}:{bound[1]}"
                ),
            )
        else:
            arrivals = assign_models(trace, mix, seed=args.seed)
            result = run_trace(plane, arrivals)
    except ValueError as exc:
        log.error(str(exc))
        return 2

    report = live_report(
        plane,
        result,
        machine_name=args.machine.lower(),
        isa=machine.isa,
        trace_info=trace_info,
        slo_p99_ms=args.slo_p99,
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"live_{args.machine.lower()}_{args.controller}"
    json_path = save_report(report, outdir / f"{stem}.json")

    totals = report["totals"]
    p99 = totals["latency"]["p99_ms"]
    log.info(
        f"arrived {totals['arrived']}, admitted {totals['admitted']}, "
        f"shed {totals['shed']} "
        f"({100.0 * totals['shed_rate']:.1f}%)"
    )
    log.info(
        f"throughput {totals['throughput_rps']:.1f} rps, p99 "
        f"{'n/a' if p99 is None else f'{p99:.2f} ms'} "
        f"(SLO {'met' if report['slo_met'] else 'MISSED'})"
    )
    firing = [
        a["rule"]
        for a in report.get("slo_monitor", {}).get("alerts", [])
        if a["firing"]
    ]
    if firing:
        log.warning(
            f"burn-rate alerts firing at end of run: {', '.join(firing)}"
        )
    log.info(f"wrote {json_path}")
    if obs is not None:
        for path in obs.write_outputs():
            log.info(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    """CLI entry point: dispatch ``live`` or run the offline planner."""
    argv = list(argv if argv is not None else sys.argv[1:])
    if argv and argv[0] == "live":
        return _live_main(argv[1:])
    args = _parse_args(argv)
    obslib.configure_from_args(args)
    try:
        machine = machine_by_name(args.machine)
    except KeyError as exc:
        log.error(str(exc))
        return 2
    if (args.replicas is None) != (args.threads is None):
        log.error("pass both --replicas and --threads, or neither")
        return 2

    try:
        trace, trace_info = trace_from_spec(
            args.arrivals,
            rate_rps=args.rate,
            duration_ms=args.duration,
            seed=args.seed,
        )
    except (OSError, ValueError, IndexError) as exc:
        log.error(f"cannot build trace {args.arrivals!r}: {exc}")
        return 2
    if not trace:
        log.error(
            "trace is empty — raise --rate or --duration "
            "(or check the replayed CSV)"
        )
        return 2

    if args.use_tuned:
        from repro import tune

        cache = tune.activate(
            tune.TuneCache(args.tune_cache or tune.default_cache_root())
        )
        log.info(f"per-layer dispatch: tuned (cache {cache.root})")

    try:
        batch_candidates = [
            int(b) for b in args.batch_candidates.split(",") if b.strip()
        ]
        if args.max_batch is not None:
            batch_candidates = [args.max_batch]
        if args.replicas is not None:
            placements = [
                Placement(
                    replicas=args.replicas,
                    threads_per_replica=args.threads,
                )
            ]
        else:
            placements = None
        best, outcomes = search_configurations(
            trace,
            machine,
            args.model,
            slo_p99_ms=args.slo_p99,
            batch_candidates=batch_candidates,
            max_wait_ms=args.max_wait,
            use_tuned=args.use_tuned,
            placements=placements,
        )
    except ValueError as exc:
        log.error(str(exc))
        return 2

    obs = obslib.obs_from_cli(args.trace, args.metrics, virtual_time=True)
    if obs is not None:
        # re-run the winning configuration with the virtual-clock
        # tracer attached: one clean, deterministic trace of exactly
        # the configuration the report describes (the warm executor
        # reprices nothing, so the report bytes cannot shift)
        obs.metrics.counter(
            "serve.candidates", help="configurations the search simulated"
        ).inc(len(outcomes))
        best = evaluate_configuration(
            trace,
            machine,
            args.model,
            best.placement,
            best.policy,
            use_tuned=args.use_tuned,
            executor=best.executor,
            obs=obs,
        )
        log.debug("instrumented re-run of the winning configuration done")

    report = build_report(
        best,
        outcomes,
        machine_name=args.machine.lower(),
        isa=machine.isa,
        model=args.model,
        trace_info=trace_info,
        slo_p99_ms=args.slo_p99,
        use_tuned=args.use_tuned,
        machine=machine,
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"serve_{args.machine.lower()}_{args.model}"
    json_path = save_report(report, outdir / f"{stem}.json")
    figure = latency_throughput_figure(report)
    figure_path = outdir / f"{stem}_frontier.txt"
    figure_path.write_text(figure + "\n")

    cfg = report["config"]
    met = report["metrics"]
    log.info(figure)
    log.info("")
    log.info(
        f"best config: {cfg['replicas']} replicas x "
        f"{cfg['threads_per_replica']} threads, max batch "
        f"{cfg['max_batch']} (wait {cfg['max_wait_ms']:g} ms) — "
        f"{met['throughput_rps']:.1f} rps, p99 {met['p99_ms']:.2f} ms "
        f"(SLO {'met' if cfg['slo_met'] else 'MISSED'})"
    )
    log.info(f"wrote {json_path}")
    log.info(f"wrote {figure_path}")
    if obs is not None:
        for path in obs.write_outputs():
            log.info(f"wrote {path}")
    if not cfg["slo_met"]:
        log.warning(
            "warning: no configuration met the SLO; reporting the "
            "lowest-p99 candidate"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
