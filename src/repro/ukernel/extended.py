"""Extended generators: the full alpha/beta kernel and the non-packed kernel.

Two pieces the paper describes but does not spell out:

* **Scaled kernel** (Figure 4).  The general micro-kernel computes
  ``C = beta*C + alpha*(Ac @ Bc)`` through two scaling nests (``Cb``,
  ``Ba``) around the outer-product loop.  The paper: "Optimization of the
  initial code will involve more scheduling functions for the Cb and Ba
  loops, equivalent to those shown from this point beyond."
  :func:`generate_scaled_microkernel` supplies those scheduling functions:
  both scaling nests vectorize with broadcast + multiply, and the compute
  core reuses the Section III pipeline.

* **Non-packed kernel** (Section III-B).  "It is possible that we do not
  need the packing because the data is already packed or the size of the
  problem is small enough that the cost of packing is not worth it."  The
  natural-layout kernel takes A (MR x KC), B (KC x NR) and C (MR x NR) in
  plain row-major order: C and B vectorize along the contiguous j
  dimension, and A elements are *broadcast* — items 1-4 of the paper's
  recipe (no i split, A_reg sized by MR, broadcast loads, ``neon_vfmadd``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.core import DRAM, Procedure, proc
from repro.core.scheduling import (
    autofission,
    bind_expr,
    divide_loop,
    expand_dim,
    lift_alloc,
    rename,
    replace,
    set_memory,
    simplify,
    stage_mem,
)
from .generator import (
    GeneratedKernel,
    _default_lib,
    _Flavour,
    _generate,
    _Operand,
    _packed,
    _schedule,
    make_scaled_reference_kernel,
)

# ---------------------------------------------------------------------------
# Non-packed (natural-layout) kernel
# ---------------------------------------------------------------------------


def make_nopack_reference_kernel() -> Procedure:
    """Natural row-major layout: no packing, no transposed C."""

    @proc
    def ukernel_nopack_ref(
        MR: size,
        NR: size,
        KC: size,
        A: f32[MR, KC] @ DRAM,
        B: f32[KC, NR] @ DRAM,
        C: f32[MR, NR] @ DRAM,
    ):
        for k in seq(0, KC):
            for i in seq(0, MR):
                for j in seq(0, NR):
                    C[i, j] += A[i, k] * B[k, j]

    return ukernel_nopack_ref


def _nopack(mr: int, nr: int, lib: dict) -> _Flavour:
    """Items 1-4 of the paper's recipe: only j splits ("Loop i ... should
    not be split"), C and B vectorize along the contiguous j, and A_reg is
    sized by MR and filled by broadcasts for ``neon_vfmadd``."""
    lanes = lib["lanes"]
    return _Flavour(
        split=("j",),
        c_access=f"C[i, {lanes} * jt + jtt]",
        c_lane="jtt",
        c_dims=((nr // lanes, "jt"), (mr, "i")),
        operands=(
            _Operand("A", "jtt", ((mr, "i"),), "broadcast", 3),
            _Operand("B", "jtt", ((nr // lanes, "jt"),), "load", 3),
        ),
        fma="fma",
        unroll=("jt #1",),
    )


def generate_nopack_microkernel(
    mr: int, nr: int, lib: Optional[dict] = None
) -> GeneratedKernel:
    """Generate the non-packed kernel of Section III-B.

    Signature: ``(KC, A[MR, KC], B[KC, NR], C[MR, NR])`` — all operands in
    natural row-major layout.  Requires ``nr`` divisible by the vector
    length; ``mr`` is unconstrained (the i loop is never split).
    """
    lib = lib if lib is not None else _default_lib()
    lanes = lib["lanes"]
    if nr % lanes != 0:
        raise ValueError(
            f"non-packed kernel needs NR divisible by {lanes}, got {nr}"
        )
    reference = make_nopack_reference_kernel()
    name = f"uk_nopack_{mr}x{nr}_{lib['dtype']}"
    flavour = _nopack(mr, nr, lib)
    return _generate(reference, name, mr, nr, lib, "nopack", flavour)


# ---------------------------------------------------------------------------
# Scaled (alpha/beta) kernel
# ---------------------------------------------------------------------------


def generate_scaled_microkernel(
    mr: int, nr: int, lib: Optional[dict] = None
) -> GeneratedKernel:
    """Generate the full Figure 4 kernel: ``C = beta*C + alpha*Ac@Bc``.

    Signature: ``(KC, alpha[1], Ac[KC, MR], Bc[KC, NR], beta[1],
    C[NR, MR])``.  The two scaling nests (``Cb = C * beta`` and
    ``Ba = Bc * alpha``) vectorize with a broadcast of the scalar and the
    vector multiply; the outer-product core reuses the packed Section III
    schedule against the staged temporaries.
    """
    lib = lib if lib is not None else _default_lib()
    lanes = lib["lanes"]
    if mr % lanes or nr % lanes:
        raise ValueError(
            f"scaled kernel needs MR and NR divisible by {lanes}, "
            f"got {mr}x{nr}"
        )
    steps: Dict[str, Procedure] = {}

    p = rename(
        make_scaled_reference_kernel(), f"uk_scaled_{mr}x{nr}_{lib['dtype']}"
    )
    p = p.partial_eval(mr, nr)
    steps["v1_specialized"] = p

    # --- the Cb = C * beta nest: vectorize along ci -------------------------
    p = _vectorize_scale_nest(
        p, loop="ci", buf="C", scalar="beta", dest="Cb", lanes=lanes, lib=lib
    )
    # --- the Ba = Bc * alpha nest: vectorize along bj ------------------------
    p = _vectorize_scale_nest(
        p, loop="bj", buf="Bc", scalar="alpha", dest="Ba", lanes=lanes, lib=lib
    )
    steps["v2_scaling_vectorized"] = p

    # --- the compute core: the Section III packed pipeline over Cb/Ba -------
    core = _packed(mr, nr, lib, c="Cb", b="Ba")
    p = _schedule(p, dataclasses.replace(core, unroll=()), lib)
    steps["v3_core"] = p

    # --- the copy-back nest: plain vector load/store -------------------------
    p = divide_loop(p, "ci", lanes, ["cit", "citt"], perfect=True)
    p = bind_expr(p, "Cb[_]", "Cb_out")
    p = expand_dim(p, "Cb_out", lanes, "citt")
    p = lift_alloc(p, "Cb_out", n_lifts=2)
    p = autofission(p, p.find("Cb_out[_] = _").after(), n_lifts=1)
    p = replace(p, "for citt in _: _", lib["load"])
    p = replace(p, "for citt in _: _", lib["store"])
    p = set_memory(p, "Cb_out", lib["memory"])
    p = simplify(p)
    steps["v4_copy_back"] = p

    return GeneratedKernel(
        proc=p,
        mr=mr,
        nr=nr,
        lanes=lanes,
        dtype=lib["dtype"],
        variant="scaled",
        steps=steps,
    )


def _vectorize_scale_nest(
    p: Procedure, loop: str, buf: str, scalar: str, dest: str, lanes: int, lib: dict
) -> Procedure:
    """Vectorize ``dest[..] = buf[..] * scalar[0]`` along its inner loop."""
    it, itt = f"{loop}t", f"{loop}tt"
    p = divide_loop(p, loop, lanes, [it, itt], perfect=True)

    # broadcast the scalar first so it hoists to the top on its own
    scal_reg = f"{scalar}_{dest}_vec"
    p = bind_expr(p, f"{scalar}[_]", scal_reg)
    p = expand_dim(p, scal_reg, lanes, itt)
    p = lift_alloc(p, scal_reg, n_lifts=4)
    p = autofission(p, p.find(f"{scal_reg}[_] = _").after(), n_lifts=3)
    p = replace(p, f"for {itt} in _: _", lib["broadcast"])
    p = set_memory(p, scal_reg, lib["memory"])

    # source vector
    src_reg = f"{buf}_{dest}_vec"
    p = bind_expr(p, f"{buf}[_]", src_reg)
    p = expand_dim(p, src_reg, lanes, itt)
    p = lift_alloc(p, src_reg, n_lifts=3)
    p = autofission(p, p.find(f"{src_reg}[_] = _").after(), n_lifts=1)
    p = replace(p, f"for {itt} in _: _", lib["load"])
    p = set_memory(p, src_reg, lib["memory"])

    # multiply into a register tile of the destination, then store
    dest_reg = f"{dest}_vec"
    p = stage_mem(p, f"{dest}[_] = _", _dest_access(dest, p), dest_reg)
    p = expand_dim(p, dest_reg, lanes, itt)
    p = lift_alloc(p, dest_reg, n_lifts=3)
    p = autofission(p, p.find(f"{dest}[_] = _").before(), n_lifts=1)
    p = replace(p, f"for {itt} in _: _", lib["mul"])
    p = replace(p, f"for {itt} in _: _", lib["store"])
    p = set_memory(p, dest_reg, lib["memory"])
    return simplify(p)


def _dest_access(dest: str, p: Procedure) -> str:
    """Render the index expression of the first assignment into ``dest``."""
    from repro.core.pprint import stmt_to_str

    stmt = stmt_to_str(p.find(f"{dest}[_] = _").stmt())
    return stmt.split(" = ")[0].strip()
