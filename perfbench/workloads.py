"""The four benchmark workloads: inputs from a seed, a timed section, checks.

Each workload is three functions.  ``setup(seed, tmp)`` imports what
the workflow needs and generates its inputs (for serve-live it also
builds the plane); ``run(state)`` is the timed section and returns the
measured figures plus the outputs the checks read.  ``check(state,
out)`` runs after the clock stops and returns ``(attempted, failures)``
— one entry per operation it verified.

Load comes from one process: the tuner runs in-process
(``workers=0``), the live plane on one asyncio loop.
"""

from __future__ import annotations

import math
import os
import random
import time
from pathlib import Path

#: serve-plan: the planner's trace and search space
PLAN_RATE_RPS = 10.0
PLAN_DURATION_MS = 400_000.0
PLAN_BATCHES = (1, 2, 4, 8)
PLAN_SLO_MS = 400.0

#: serve-live: pools, mix and bursty arrivals on the 2-socket machine
LIVE_MACHINE = "numa2s"
LIVE_POOLS = (("resnet50", 6, 4), ("vgg16", 2, 4))
LIVE_MIX = {"resnet50": 0.8, "vgg16": 0.2}
LIVE_RATES_RPS = (20.0, 150.0)
LIVE_DWELL_MS = 2000.0
LIVE_DURATION_MS = 1_200_000.0
LIVE_SLO_MS = 500.0
LIVE_MAX_BATCH = 8
LIVE_MAX_WAIT_MS = 5.0

#: tune-cold: thread axis, and the (m mod 16, n mod 48) of each seeded
#: ragged shape; two residue pairs keep tail-kernel generation small
TUNE_THREADS = (1, 2, 4)
RAGGED_RESIDUES = ((5, 7), (11, 26), (5, 7), (11, 26))
#: tune-cold: (isa, problem) pairs re-ranked by the serial selector
SERIAL_SAMPLES = 6

#: eval-figures: (isa, --threads) runs of the eval CLI
EVAL_RUNS = (("neon", 8), ("avx512", 16), ("rvv128", 4), ("numa2s", 32))


def check_kernels(isas, seed):
    """Interpret each ISA's main-tile kernel; compare with NumPy.

    Returns ``(attempted, failures)``.  The kernel computes
    ``C += A^T B`` on column-major ``C`` (``nr x mr``) over a seeded
    ``kc``.
    """
    import numpy as np

    from repro.isa.targets import target
    from repro.ukernel.registry import registry_for_machine

    failures = []
    for isa in isas:
        t = target(isa)
        mr, nr = t.main_tile
        kernel = registry_for_machine(t.machine).get(mr, nr)
        rng = np.random.default_rng([seed, mr, nr])
        kc = int(rng.integers(3, 17))
        ac = rng.standard_normal((kc, mr)).astype(np.float32)
        bc = rng.standard_normal((kc, nr)).astype(np.float32)
        c = rng.standard_normal((nr, mr)).astype(np.float32)
        expected = c.astype(np.float64) + (
            ac.astype(np.float64).T @ bc.astype(np.float64)
        ).T
        try:
            kernel.proc.interpret(kc, ac, bc, c)
        except Exception as exc:  # a crash is a failed check, not a stop
            failures.append(f"kernel {isa} {mr}x{nr} raised {exc!r}")
            continue
        if not np.allclose(c, expected, rtol=1e-4, atol=1e-4):
            failures.append(f"kernel {isa} {mr}x{nr} differs from numpy")
    return len(isas), failures


# -- tune-cold ---------------------------------------------------------


def ragged_shapes(seed):
    """Seeded m, n, k that leave edges for every tile above 1 x 1.

    The residues are fixed — m mod 16 (every tile height divides 16) and
    n mod 48 (every tile width divides 48) — so every seed needs the same
    edge and ``vsetvl`` tail kernels, and the sweep's cost does not
    depend on the seed; the seed picks the sizes.
    """
    rng = random.Random(f"ragged:{seed}")
    return tuple(
        (16 * rng.randrange(6, 63) + m_res,
         48 * rng.randrange(2, 21) + n_res,
         rng.randrange(97, 1000))
        for m_res, n_res in RAGGED_RESIDUES
    )


def tune_setup(seed, tmp):
    from repro import tune

    problems = tune.problem_set("all") + ragged_shapes(seed)
    cache = tune.TuneCache(Path(tmp) / "tunecache")
    return {"seed": seed, "problems": problems, "cache": cache}


def _sweep(state):
    from repro import tune

    return tune.sweep(
        ("all",),
        state["problems"],
        workers=0,
        cache=state["cache"],
        threads=TUNE_THREADS,
    )


def _candidates(artifact):
    return sum(
        entry["candidates"]
        for machine in artifact["machines"].values()
        for entry in machine["best"].values()
    )


def tune_run(state):
    t0 = time.perf_counter()
    cold = _sweep(state)
    t1 = time.perf_counter()
    warm = _sweep(state)
    t2 = time.perf_counter()
    candidates = _candidates(cold)
    gflops = [
        entry["gflops"]
        for machine in cold["machines"].values()
        for entry in machine["best"].values()
    ]
    geomean = math.exp(sum(math.log(g) for g in gflops) / len(gflops))
    return {
        "run_s": t2 - t0,
        "window": (t0, t2),
        "figures": {
            "candidates_per_s": candidates / (t1 - t0),
            "warm_sweep_s": t2 - t1,
            "model_tuned_gflops_geomean": geomean,
        },
        "cold": cold,
        "warm": warm,
    }


def tune_check(state, out):
    from repro.isa.targets import ISA_TARGETS, target
    from repro.ukernel.registry import select_kernel_for

    cold, warm = out["cold"], out["warm"]
    slots = [
        (isa, key)
        for isa, machine in sorted(cold["machines"].items())
        for key in sorted(machine["best"])
    ]
    failures = [
        f"tune: warm winner {isa} {key} differs from the cold one"
        for isa, key in slots
        if warm["machines"].get(isa, {}).get("best", {}).get(key)
        != cold["machines"][isa]["best"][key]
    ]

    def without_counters(artifact):
        return {k: v for k, v in artifact.items()
                if not k.startswith("cache_")}

    if without_counters(cold) != without_counters(warm):
        failures.append("tune: cold and warm artifacts differ")
    if warm.get("cache_misses") != 0:
        failures.append(f"tune: warm sweep missed {warm['cache_misses']}")
    attempted = len(slots) + 2

    # serial agreement: the in-process selector, no cache active
    rng = random.Random(f"serial:{state['seed']}")
    isas = sorted(ISA_TARGETS)
    for _ in range(SERIAL_SAMPLES):
        isa = rng.choice(isas)
        m, n, k = rng.choice(state["problems"])
        entry = cold["machines"][isa]["best"][f"{m}x{n}x{k}"]
        shape, _ = select_kernel_for(m, n, k, machine=target(isa).machine)
        if list(shape) != entry["kernel"]:
            failures.append(
                f"tune: {isa} {m}x{n}x{k} sweep picked {entry['kernel']}, "
                f"select_kernel_for picked {list(shape)}"
            )
    attempted += SERIAL_SAMPLES
    kernels, kernel_failures = check_kernels(isas, state["seed"])
    return attempted + kernels, failures + kernel_failures


# -- serve-plan --------------------------------------------------------


def plan_setup(seed, tmp):
    from repro.isa.machine import CARMEL
    # the planner is imported here so the timed section pays no import
    from repro.serve import placement, traffic  # noqa: F401

    trace = traffic.synthetic_trace(PLAN_RATE_RPS, PLAN_DURATION_MS, seed=seed)
    return {"seed": seed, "trace": trace, "machine": CARMEL}


def plan_run(state):
    from repro.serve import placement

    t0 = time.perf_counter()
    best, outcomes = placement.search_configurations(
        state["trace"],
        state["machine"],
        "resnet50",
        slo_p99_ms=PLAN_SLO_MS,
        batch_candidates=PLAN_BATCHES,
    )
    t1 = time.perf_counter()
    run_s = t1 - t0
    simulated = len(state["trace"]) * len(outcomes)
    return {
        "run_s": run_s,
        "window": (t0, t1),
        "figures": {
            "sim_requests_per_s": simulated / run_s,
            "model_plan_goodput_rps": best.metrics["throughput_rps"],
            "model_plan_p99_ms": best.metrics["p99_ms"],
            "plan_feasible": best.meets_slo(PLAN_SLO_MS),
            "plan_winner": best.label,
        },
        "best": best,
        "outcomes": outcomes,
    }


def plan_check(state, out):
    from repro.serve.placement import enumerate_placements

    best, outcomes = out["best"], out["outcomes"]
    failures = []
    expected = len(PLAN_BATCHES) * len(enumerate_placements(state["machine"]))
    if len(outcomes) != expected:
        failures.append(f"plan: {len(outcomes)} configs, expected {expected}")
    ids = sorted(r.request_id for r in state["trace"])
    for outcome in outcomes:
        served = sorted(s.request.request_id for s in outcome.result.served)
        if served != ids:
            failures.append(f"plan: {outcome.label} lost a request")
    feasible = [o for o in outcomes if o.meets_slo(PLAN_SLO_MS)]
    if feasible and not best.meets_slo(PLAN_SLO_MS):
        failures.append("plan: winner misses the SLO though one is feasible")
    if best not in (feasible or outcomes):
        failures.append("plan: winner is not one of the candidates")
    kernels, kernel_failures = check_kernels(("neon",), state["seed"])
    return len(outcomes) + 1 + kernels, failures + kernel_failures


# -- serve-live --------------------------------------------------------


def live_setup(seed, tmp):
    from repro.isa.machine import machine_by_name
    from repro.serve import plane as planelib
    from repro.serve import traffic
    from repro.serve.admission import AdmissionPolicy
    from repro.serve.timeline import timeline_for

    trace = traffic.mmpp_trace(
        LIVE_RATES_RPS, LIVE_DWELL_MS, LIVE_DURATION_MS, seed=seed
    )
    arrivals = planelib.assign_models(trace, LIVE_MIX, seed=seed)
    pools = [
        planelib.PoolSpec(
            model, replicas, threads,
            max_batch=LIVE_MAX_BATCH, max_wait_ms=LIVE_MAX_WAIT_MS,
        )
        for model, replicas, threads in LIVE_POOLS
    ]
    plane = planelib.ServePlane(
        machine_by_name(LIVE_MACHINE),
        pools,
        timeline_for("sim"),
        controller="sim",
        admission=AdmissionPolicy(deadline_ms=LIVE_SLO_MS),
    )
    return {"seed": seed, "arrivals": arrivals, "plane": plane}


def live_run(state):
    from repro.serve import plane as planelib
    from repro.serve.report import percentile

    t0 = time.perf_counter()
    result = planelib.run_trace(state["plane"], state["arrivals"])
    t1 = time.perf_counter()
    run_s = t1 - t0
    latencies = [s.latency_ms for s in result.served]
    good = sum(1 for lat in latencies if lat <= LIVE_SLO_MS)
    return {
        "run_s": run_s,
        "window": (t0, t1),
        "figures": {
            "replay_requests_per_s": result.arrived / run_s,
            "model_live_p99_ms": percentile(latencies, 99),
            "model_live_goodput_rps": good / (result.makespan_ms / 1e3),
            "shed_frac": len(result.shed) / result.arrived,
        },
        "result": result,
    }


def live_check(state, out):
    result = out["result"]
    ids = [r.request_id for _, r in state["arrivals"]]
    ended = {}
    for record in (*result.served, *result.shed):
        ended[record.request_id] = ended.get(record.request_id, 0) + 1
    failures = [
        f"live: request {rid} ended {ended.get(rid, 0)} times"
        for rid in ids
        if ended.get(rid, 0) != 1
    ][:20]
    if result.arrived != len(result.served) + len(result.shed):
        failures.append(
            f"live: arrived {result.arrived} != served "
            f"{len(result.served)} + shed {len(result.shed)}"
        )
    kernels, kernel_failures = check_kernels(("numa2s",), state["seed"])
    return len(ids) + 1 + kernels, failures + kernel_failures


# -- eval-figures ------------------------------------------------------


def eval_setup(seed, tmp):
    # the CLI is imported here so the timed section pays no import
    from repro.eval import __main__ as eval_cli  # noqa: F401

    os.environ["REPRO_TUNECACHE"] = str(Path(tmp) / "tunecache")
    return {"seed": seed, "outdir": Path(tmp) / "eval"}


def eval_run(state):
    from repro.eval import __main__ as eval_cli
    from repro.eval import harness

    codes = []
    t0 = time.perf_counter()
    for isa, threads in EVAL_RUNS:
        outdir = state["outdir"] / isa
        codes.append(
            eval_cli.main(
                [str(outdir), "--isa", isa, "--threads", str(threads), "-q"]
            )
        )
    t1 = time.perf_counter()
    run_s = t1 - t0
    ctx = harness.default_context()
    dnn_s = (
        harness.fig16_resnet_time_data(ctx=ctx)[-1]["ALG+EXO"]
        + harness.fig18_vgg_time_data(ctx=ctx)[-1]["ALG+EXO"]
    )
    return {
        "run_s": run_s,
        "window": (t0, t1),
        "figures": {
            "model_dnn_s": dnn_s,
        },
        "codes": codes,
    }


def eval_check(state, out):
    failures = []
    for (isa, _), code in zip(EVAL_RUNS, out["codes"]):
        summary = "SUMMARY.txt" if isa == "neon" else f"SUMMARY_{isa}.txt"
        if code != 0 or not (state["outdir"] / isa / summary).is_file():
            failures.append(f"eval: {isa} exited {code} or wrote no summary")
    if not out["figures"]["model_dnn_s"] > 0:
        failures.append("eval: modelled DNN time is not positive")
    isas = tuple(isa for isa, _ in EVAL_RUNS)
    kernels, kernel_failures = check_kernels(isas, state["seed"])
    return len(EVAL_RUNS) + 1 + kernels, failures + kernel_failures


#: name -> (setup, timed section, checks)
WORKLOADS = {
    "tune-cold": (tune_setup, tune_run, tune_check),
    "serve-plan": (plan_setup, plan_run, plan_check),
    "serve-live": (live_setup, live_run, live_check),
    "eval-figures": (eval_setup, eval_run, eval_check),
}

#: unit of every workload figure
UNITS = {
    "candidates_per_s": "1/s",
    "warm_sweep_s": "s",
    "model_tuned_gflops_geomean": "GFLOPS",
    "sim_requests_per_s": "1/s",
    "model_plan_goodput_rps": "1/s",
    "model_plan_p99_ms": "ms",
    "plan_feasible": "bool",
    "plan_winner": "config",
    "replay_requests_per_s": "1/s",
    "model_live_p99_ms": "ms",
    "model_live_goodput_rps": "1/s",
    "shed_frac": "ratio",
    "model_dnn_s": "s",
}


def is_modelled(name):
    """Whether a figure comes from the deterministic timing model.

    Such figures must repeat bit for bit across runs of one seed.
    """
    return name.startswith("model_") or name in (
        "shed_frac", "plan_feasible", "plan_winner"
    )
