"""Model-evaluation throughput: scalar oracle vs vectorized engine.

The analytic time model is the tuner's and planner's inner loop, so its
evaluation throughput bounds every search.  This benchmark times the
same candidate sweep both ways — one call per candidate of the scalar
serial oracle (``exo_gemm_breakdown`` in ``tests/parallel_oracle.py``)
vs one ``repro.sim.vectorized`` batch for the whole sweep — and records
candidates/second for each plus their ratio.  The workload is
tune-sweep shaped: a pool of (m, n) planes swept across many k depths,
so plan selection (pure Python in both paths) amortizes across the
sweep exactly as ``tune.executor``'s plan-cost memo amortizes it.

The ratio is the gate: the vectorized engine must clear 100x the scalar
path's steady-state rate, and the committed baseline
(``benchmarks/baselines/``) holds a conservative floor so the CI
regression check fails only on a real collapse, not on
runner-to-runner jitter.  The ratio's two rates are timed in
alternating rounds, each the best of :data:`SPEEDUP_ROUNDS`, so a
slow spell of the host hits both alike; every round of the
speedup benchmark adds its timings to both bests.
"""

from __future__ import annotations

import random
import time

import numpy as np
import parallel_oracle

from repro.blis.params import analytical_tile_params
from repro.eval.harness import plane_chunk_plans
from repro.sim import vectorized as vec

#: the sweep: PLANES distinct (m, n) planes x DEPTHS k values each
PLANES = 100
DEPTHS = 30
#: scalar candidates timed per round (the full sweep would take minutes)
SCALAR_SAMPLE = 120
#: the vectorized engine must beat the scalar oracle by this factor
SPEEDUP_TARGET = 100.0
#: alternating scalar/vectorized timing rounds behind the speedup
SPEEDUP_ROUNDS = 5

_rng = random.Random(20240207)
_PLANE_POOL = [
    (_rng.randrange(1, 2000), _rng.randrange(1, 2000)) for _ in range(PLANES)
]
SPECS = [
    (m, n, _rng.randrange(1, 4000))
    for m, n in _PLANE_POOL
    for _ in range(DEPTHS)
]
#: the sweep as parallel arrays — built once, as a tune driver would
_M = np.asarray([s[0] for s in SPECS])
_N = np.asarray([s[1] for s in SPECS])
_K = np.asarray([s[2] for s in SPECS])


def _scalar_eval(ctx, specs):
    mr, nr = ctx.main_tile
    for m, n, k in specs:
        parallel_oracle.exo_gemm_breakdown(m, n, k, main=(mr, nr), ctx=ctx)


def _vectorized_eval(ctx, memo):
    """One full batch evaluation over ``_M``/``_N``/``_K``,
    construction included.

    Tile params are hoisted once per batch (they depend only on the
    (mr, nr) kernel) and the per-candidate ``clamp_tiles`` reductions —
    ``kc = min(kc, max(1, k))``, ``nc = min(nc, max(nr, n))`` — run as
    array ops, the same amortization ``tune.executor`` applies.
    """
    mr, nr = ctx.main_tile
    machine = ctx.machine

    def source(_i, m_p, n_p):
        if (m_p, n_p) not in memo:
            memo[(m_p, n_p)] = vec.plan_costs(
                plane_chunk_plans(ctx, m_p, n_p, mr, nr), ctx.model
            )
        return memo[(m_p, n_p)]

    tp = analytical_tile_params(mr, nr, machine)
    batch = vec.CandidateBatch(
        machines=(machine,),
        m=_M,
        n=_N,
        k=_K,
        mr=mr,
        nr=nr,
        kc=np.minimum(tp.kc, np.maximum(1, _K)),
        nc=np.minimum(tp.nc, np.maximum(nr, _N)),
        plan_source=source,
    )
    return vec.batch_gemm_cycles(batch, profile=False)


def _measure_rates(ctx) -> dict:
    """Both rates, from :data:`SPEEDUP_ROUNDS` alternating rounds.

    Each round times the scalar sample, then the vectorized sweep; each
    rate is the best of its rounds.
    """
    sample = SPECS[:SCALAR_SAMPLE]
    _scalar_eval(ctx, sample[:4])  # warm kernel traces
    memo: dict = {}
    _vectorized_eval(ctx, memo)  # warm the plan-cost memo
    scalar_s, vectorized_s = [], []
    for _ in range(SPEEDUP_ROUNDS):
        t0 = time.perf_counter()
        _scalar_eval(ctx, sample)
        t1 = time.perf_counter()
        _vectorized_eval(ctx, memo)
        vectorized_s.append(time.perf_counter() - t1)
        scalar_s.append(t1 - t0)
    return {
        "scalar": len(sample) / min(scalar_s),
        "vectorized": len(SPECS) / min(vectorized_s),
    }


def test_scalar_model_throughput(benchmark, ctx):
    sample = SPECS[:SCALAR_SAMPLE]
    _scalar_eval(ctx, sample[:4])  # warm kernel traces
    times = []

    def run():
        t0 = time.perf_counter()
        _scalar_eval(ctx, sample)
        times.append(time.perf_counter() - t0)

    benchmark(run)
    rate = len(sample) / min(times)
    benchmark.extra_info.update(
        machine="carmel",
        isa="neon",
        threads=1,
        metric="scalar_candidates_per_sec",
        value=rate,
    )
    assert rate > 0


def test_vectorized_model_throughput(benchmark, ctx):
    memo: dict = {}
    # steady state: the plan-cost memo is warm, as within one tune
    # chunk (evaluate_candidates shares one memo across its specs)
    baseline = _vectorized_eval(ctx, memo)
    times = []

    def run():
        t0 = time.perf_counter()
        out = _vectorized_eval(ctx, memo)
        times.append(time.perf_counter() - t0)
        return out

    scored = benchmark(run)
    # determinism: repeated evaluations are bit-identical
    assert scored.total_cycles.tolist() == baseline.total_cycles.tolist()
    rate = len(SPECS) / min(times)
    benchmark.extra_info.update(
        machine="carmel",
        isa="neon",
        threads=1,
        metric="vectorized_candidates_per_sec",
        value=rate,
    )
    # spot parity: the batch agrees with the oracle on the first spec
    mr, nr = ctx.main_tile
    m, n, k = SPECS[0]
    want = parallel_oracle.exo_gemm_breakdown(m, n, k, main=(mr, nr), ctx=ctx)
    assert scored.total_cycles[0] == want.total_cycles


def test_vectorized_speedup(benchmark, ctx):
    # each benchmark round adds SPEEDUP_ROUNDS alternating timings of
    # both paths; each rate is the best over every round so far
    best = {"scalar": 0.0, "vectorized": 0.0}

    def speedup():
        for name, rate in _measure_rates(ctx).items():
            best[name] = max(best[name], rate)
        return best["vectorized"] / best["scalar"]

    ratio = benchmark(speedup)
    print(f"\n  vectorized/scalar speedup: {ratio:.0f}x")
    benchmark.extra_info.update(
        machine="carmel",
        isa="neon",
        threads=1,
        metric="vectorized_speedup_x",
        value=ratio,
    )
    assert ratio >= SPEEDUP_TARGET
