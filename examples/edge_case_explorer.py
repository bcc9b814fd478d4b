#!/usr/bin/env python3
"""Edge-case explorer: why one monolithic kernel loses on DNN shapes.

For a chosen DNN-layer GEMM this script:

1. shows how the (m, n) plane decomposes into the generated kernel family
   (the paper's Section III-B strategy);
2. compares the modelled GFLOPS of the monolithic-8x12 approach (BLIS/NEON
   style, with masked edge tiles) against the exact-family approach
   (ALG+EXO), isolating the edge-case effect of the paper's Figure 13;
3. runs the paper's model-driven main-kernel selection ("the optimization
   process ... boils down to evaluating a number of generated
   micro-kernels") and reports which register tile wins.

Run:  python examples/edge_case_explorer.py [m n k]
"""

from __future__ import annotations

import sys

from repro.eval.harness import (
    all_config_breakdowns,
    best_exo_breakdown,
    default_context,
)
from repro.isa.targets import target
from repro.ukernel.edge import tile_cover, useful_fraction
from repro.workloads.resnet50 import RESNET50_LAYERS


def explore(m: int, n: int, k: int) -> None:
    print(f"GEMM m={m}, n={n}, k={k}")
    print("=" * 60)

    cover = tile_cover(m, n, target("neon").family)
    print("kernel-family decomposition of the (m, n) plane:")
    for (mr, nr), count in sorted(cover.items(), reverse=True):
        print(f"  {count:6d} tiles of {mr}x{nr}")
    frac = useful_fraction(m, n, 8, 12)
    print(f"\nmonolithic 8x12 usefulness on this plane: {100 * frac:.1f}%")

    ctx = default_context()
    configs = all_config_breakdowns(m, n, k, ctx=ctx)
    print("\nmodelled GFLOPS per configuration:")
    for name, b in sorted(configs.items(), key=lambda kv: -kv[1].gflops):
        print(f"  {name:10s} {b.gflops:6.2f}  ({b.seconds * 1e3:.3f} ms)")

    shape, b = best_exo_breakdown(m, n, k, ctx=ctx)
    print(f"\nmodel-selected EXO main kernel: {shape[0]}x{shape[1]} "
          f"({b.gflops:.2f} GFLOPS)")


def main() -> None:
    if len(sys.argv) == 4:
        m, n, k = (int(v) for v in sys.argv[1:])
        explore(m, n, k)
        return
    # default: the two most edge-heavy ResNet50 layers (Table I, rows 17/20)
    for layer in (RESNET50_LAYERS[16], RESNET50_LAYERS[19]):
        explore(layer.m, layer.n, layer.k)
        print()


if __name__ == "__main__":
    main()
