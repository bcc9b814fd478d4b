#!/usr/bin/env python3
"""ResNet50 v1.5 inference GEMMs: the paper's Figures 15 and 16 workflow.

Two parts:

1. **Functional** — run one real DNN-layer GEMM (layer 17 of Table I:
   m=49, n=512, k=4608 is too big for the interpreter, so a scaled-down
   version with the same *edge structure* is used) through the five-loop
   BLIS-like algorithm with the generated kernel family, and check the
   result against numpy.  Layer shapes with m=49 exercise the 1xN row
   kernels the paper generated specifically for ResNet.

2. **Performance** — evaluate all 20 unique ResNet50 layer GEMMs (Table I)
   on the modelled Carmel core under the paper's four configurations, print
   the per-layer GFLOPS (Figure 15) and the aggregated inference time over
   all 53 layer instances (Figure 16).

Run:  python examples/resnet_inference.py
"""

from __future__ import annotations

import numpy as np

from repro import BlisGemm, naive_gemm
from repro.eval.harness import fig15_resnet_layer_data, fig16_resnet_time_data
from repro.eval.report import render_table, winners
from repro.isa.targets import target
from repro.sim.memory import TileParams

CONFIGS = ["ALG+NEON", "ALG+BLIS", "BLIS", "ALG+EXO"]


def functional_demo() -> None:
    """A ragged GEMM with ResNet's m=49 edge structure, computed for real."""
    neon = target("neon")
    engine = BlisGemm(
        {shape: neon.get(*shape) for shape in neon.family},
        tiles=TileParams(mc=24, kc=16, nc=36, mr=8, nr=12),
    )
    m, n, k = 49, 24, 32  # same m-tail structure as ResNet layers 17-20
    rng = np.random.default_rng(1)
    a = rng.random((m, k), dtype=np.float32)
    b = rng.random((k, n), dtype=np.float32)
    c = np.zeros((m, n), dtype=np.float32)
    expected = naive_gemm(a, b, c.copy())
    engine(a, b, c)
    ok = np.allclose(c, expected, rtol=1e-4, atol=1e-4)
    print(f"functional {m}x{n}x{k} GEMM through the kernel family: "
          f"{'OK' if ok else 'FAIL'}")
    print(f"  m = 49 decomposes into row chunks: {engine.m_chunks(m)}")


def performance_demo() -> None:
    rows = fig15_resnet_layer_data()
    print()
    print(render_table(
        rows,
        columns=["layer", "m", "n", "k", *CONFIGS],
        title="Figure 15 — ResNet50 v1.5 per-layer GFLOPS (modelled)",
    ))
    wins = winners(rows, CONFIGS)
    print(f"\nALG+EXO is the best configuration on "
          f"{wins.count('ALG+EXO')} of {len(rows)} layers "
          f"(paper: 9 of 20); BLIS on {wins.count('BLIS')}.")

    times = fig16_resnet_time_data()
    final = times[-1]
    print("\nFigure 16 — aggregated inference time over 53 layers (s):")
    for name in sorted(CONFIGS, key=lambda c: final[c]):
        print(f"  {name:10s} {final[name]:.4f}")


if __name__ == "__main__":
    functional_demo()
    performance_demo()
