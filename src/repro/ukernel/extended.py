"""Extended recipes: the full alpha/beta kernel and the non-packed kernel.

Two pieces the paper describes but does not spell out, both recipes for
the Section III routine (``_schedule`` in :mod:`repro.ukernel.generator`):

* **Scaled kernel** (Figure 4).  The general micro-kernel computes
  ``C = beta*C + alpha*(Ac @ Bc)`` through two scaling nests (``Cb``,
  ``Ba``) around the outer-product loop.  The paper: "Optimization of the
  initial code will involve more scheduling functions for the Cb and Ba
  loops, equivalent to those shown from this point beyond."  Those are
  staging records: each scaling nest splits by the vector length, then
  broadcasts the scalar, loads the source and multiplies into a register
  it stores; the compute core is the packed Section III recipe over the
  staged temporaries, and the copy-back is one more record.

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
from typing import Optional

from repro.core import DRAM, Procedure, proc
from .generator import (
    GeneratedKernel,
    _c_tile,
    _default_lib,
    _Flavour,
    _generate,
    _operand,
    _packed,
    _Stage,
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
        c=_c_tile(
            f"C[i, {lanes} * jt + jtt]",
            ((lanes, "jtt"), (nr // lanes, "jt"), (mr, "i")),
        ),
        operands=(
            _operand("A", ((lanes, "jtt"), (mr, "i")), "broadcast", 3),
            _operand("B", ((lanes, "jtt"), (nr // lanes, "jt")), "load", 3),
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


def _scale_nest(loop, outer, src, scalar, dest, lanes):
    """``dest[outer, loop] = src[outer, loop] * scalar[0]`` vectorized
    along ``loop``: the scalar is broadcast first (so it hoists to the top
    on its own), the source loaded, and the product multiplied into a
    register that is stored to ``dest``."""
    lane = ((lanes, f"{loop}tt"),)
    scal, vec = f"{scalar}_{dest}_vec", f"{src}_{dest}_vec"
    access = f"{dest}[{outer}, {lanes} * {loop}t + {loop}tt]"
    return loop, (
        _Stage(scal, lane, ("broadcast",), bind=f"{scalar}[_]", lifts=4,
               fissions=((f"{scal}[_] = _", "after", 3),)),
        _Stage(vec, lane, ("load",), bind=f"{src}[_]", lifts=3,
               fissions=((f"{vec}[_] = _", "after", 1),)),
        _Stage(f"{dest}_vec", lane, ("mul", "store"),
               stage=(f"{dest}[_] = _", access), lifts=3,
               fissions=((f"{dest}[_] = _", "before", 1),)),
    )


def _scaled(mr: int, nr: int, lib: dict) -> _Flavour:
    """Figure 4: the ``Cb = C * beta`` and ``Ba = Bc * alpha`` nests, the
    packed core over ``Cb``/``Ba``, and the ``C = Cb`` copy-back."""
    lanes = lib["lanes"]
    copy_back = _Stage("Cb_out", ((lanes, "citt"),), ("load", "store"),
                       bind="Cb[_]", lifts=2,
                       fissions=(("Cb_out[_] = _", "after", 1),))
    return dataclasses.replace(
        _packed(mr, nr, lib, c="Cb", b="Ba"),
        unroll=(),
        before=(_scale_nest("ci", "cj", "C", "beta", "Cb", lanes),
                _scale_nest("bj", "bk", "Bc", "alpha", "Ba", lanes)),
        after=(("ci", (copy_back,)),),
        steps=(("before", "v2_scaling_vectorized"), ("fma", "v3_core"),
               ("after", "v4_copy_back")),
    )


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
    reference = make_scaled_reference_kernel()
    name = f"uk_scaled_{mr}x{nr}_{lib['dtype']}"
    flavour = _scaled(mr, nr, lib)
    return _generate(reference, name, mr, nr, lib, "scaled", flavour)
