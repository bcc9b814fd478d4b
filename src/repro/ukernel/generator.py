"""Step-by-step GEMM micro-kernel generation (paper Section III).

The pipeline mirrors the paper's Figures 5-11:

v1 (Fig 6)  ``rename`` + ``partial_eval`` — specialize (MR, NR).
v2 (Fig 7)  ``divide_loop`` — match the vector length.
v3 (Fig 8)  ``stage_mem`` + ``expand_dim`` + ``lift_alloc`` +
            ``autofission``x2 + ``replace``(load/store) + ``set_memory`` —
            bind the C tile to vector registers.
v4 (Fig 9)  ``bind_expr`` + ``expand_dim`` + ``lift_alloc`` +
            ``autofission`` + ``replace``(load/broadcast) + ``set_memory``
            — stream the operands through registers.
v5 (Fig 10) ``reorder_loops`` + ``replace``(FMA) — compute.
v6 (Fig 11) ``unroll_loop`` — unroll the register loads.

Steps v2-v6 are one routine, ``_schedule``.  What differs between kernel
flavours is data: a ``_Flavour`` record names the loops to split, the
register dims and the library slots each step uses.  The flavours are
**packed** (the BLIS case: both panels vector-loaded, the FMA selects B
lanes), **broadcast** (Sections III-B/III-C: B elements broadcast into
the plain vector FMA, for NR off the vector length or ISAs without a
lane FMA such as AVX-512) and **row** (1 x NR tails).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import DRAM, Procedure, proc
from repro.core.scheduling import (
    autofission,
    bind_expr,
    divide_loop,
    expand_dim,
    lift_alloc,
    rename,
    reorder_loops,
    replace,
    set_memory,
    set_precision,
    simplify,
    stage_mem,
    unroll_loop,
)
def _default_lib() -> dict:
    """The historical default target (lazy so non-Neon stacks never import
    the Neon library — retargeting must not depend on it)."""
    from repro.isa.neon import NEON_F32_LIB

    return NEON_F32_LIB


# ---------------------------------------------------------------------------
# Reference kernels (Figures 4 and 5)
# ---------------------------------------------------------------------------


def make_reference_kernel() -> Procedure:
    """The simplified micro-kernel of Figure 5 (alpha = beta = 1).

    C is stored transposed (NR x MR) and Ac is packed transposed (KC x MR),
    matching the BLIS packing conventions discussed in Section III-A.
    """

    @proc
    def ukernel_ref(
        MR: size,
        NR: size,
        KC: size,
        Ac: f32[KC, MR] @ DRAM,
        Bc: f32[KC, NR] @ DRAM,
        C: f32[NR, MR] @ DRAM,
    ):
        for k in seq(0, KC):
            for j in seq(0, NR):
                for i in seq(0, MR):
                    C[j, i] += Ac[k, i] * Bc[k, j]

    return ukernel_ref


def make_scaled_reference_kernel() -> Procedure:
    """The full micro-kernel of Figure 4, covering alpha and beta.

    Temporaries hold ``C * beta`` and ``Bc * alpha``; the outer-product loop
    accumulates into the temporary, which is copied back at the end.
    """

    @proc
    def ukernel_ref_scaled(
        MR: size,
        NR: size,
        KC: size,
        alpha: f32[1] @ DRAM,
        Ac: f32[KC, MR] @ DRAM,
        Bc: f32[KC, NR] @ DRAM,
        beta: f32[1] @ DRAM,
        C: f32[NR, MR] @ DRAM,
    ):
        Cb: f32[NR, MR] @ DRAM
        Ba: f32[KC, NR] @ DRAM
        for cj in seq(0, NR):
            for ci in seq(0, MR):
                Cb[cj, ci] = C[cj, ci] * beta[0]
        for bk in seq(0, KC):
            for bj in seq(0, NR):
                Ba[bk, bj] = Bc[bk, bj] * alpha[0]
        for k in seq(0, KC):
            for j in seq(0, NR):
                for i in seq(0, MR):
                    Cb[j, i] += Ac[k, i] * Ba[k, j]
        for cj in seq(0, NR):
            for ci in seq(0, MR):
                C[cj, ci] = Cb[cj, ci]

    return ukernel_ref_scaled


# ---------------------------------------------------------------------------
# The generated kernel record
# ---------------------------------------------------------------------------


@dataclass
class GeneratedKernel:
    """A finished micro-kernel plus the metadata the rest of the system uses.

    Attributes:
        proc: the scheduled procedure (call signature ``(KC, Ac, Bc, C)``).
        mr, nr: register-tile shape.
        lanes: vector length of the target in elements.
        dtype: scalar type name ("f32" / "f16").
        variant: the flavour: "packed" (lane FMA), "broadcast" or "row"
            (Section III-B), "nopack" or "scaled" (``extended``).
        steps: the intermediate procedures v1..v6, keyed by step name, kept
            for inspection and for the generation tests.
    """

    proc: Procedure
    mr: int
    nr: int
    lanes: int
    dtype: str
    variant: str
    steps: Dict[str, Procedure]

    @property
    def name(self) -> str:
        return self.proc.name()

    def flops_per_k(self) -> int:
        return 2 * self.mr * self.nr


# ---------------------------------------------------------------------------
# Scheduling pipeline
# ---------------------------------------------------------------------------


def generate_microkernel(
    mr: int,
    nr: int,
    lib: Optional[dict] = None,
    variant: str = "auto",
    base: Optional[Procedure] = None,
) -> GeneratedKernel:
    """Generate an ``mr x nr`` micro-kernel for the given instruction library.

    ``variant`` selects the kernel flavour: "packed", "broadcast", "row",
    or "auto" (the first of those the tile and library allow — the
    paper's edge-case recipe).  Every call schedules a fresh kernel;
    :func:`stored_microkernel` builds each distinct one once per process.
    """
    lib = lib if lib is not None else _default_lib()
    variant = _resolve_variant(mr, nr, lib, variant)
    reference = base or make_reference_kernel()
    if lib["dtype"] != "f32":
        reference = _retype_reference(reference, lib["dtype"])
    name = f"uk_{mr}x{nr}_{lib['dtype']}_{variant}"
    flavour = _FLAVOURS[variant](mr, nr, lib)
    return _generate(reference, name, mr, nr, lib, variant, flavour)


def _resolve_variant(mr: int, nr: int, lib: dict, variant: str) -> str:
    """The flavour ``variant`` names for this tile ("auto" resolved)."""
    lanes = lib["lanes"]
    div = f"divisible by {lanes}"
    # what each flavour needs, in the order "auto" prefers them
    needs = {
        "packed": (mr % lanes == 0 and nr % lanes == 0 and lib["fmla_lane"],
                   f"MR and NR {div} and a lane FMA"),
        "broadcast": (mr % lanes == 0, f"MR {div}"),
        "row": (mr == 1 and nr % lanes == 0, f"mr=1 and NR {div}"),
    }
    if variant == "auto":
        variant = next((v for v, (fits, _) in needs.items() if fits), "")
        if not variant:
            raise ValueError(
                f"no kernel variant covers mr={mr}, nr={nr} at vector "
                f"length {lanes}; decompose the tile first"
            )
    if variant not in needs:
        raise ValueError(f"unknown kernel variant {variant!r}")
    fits, need = needs[variant]
    if not fits:
        raise ValueError(f"{variant} variant needs {need}, got {mr}x{nr}")
    return variant


#: The process-wide kernel store: ``(mr, nr, id(lib), variant)`` ->
#: ``(lib, kernel)``.  Keeping the library in the entry keeps its ``id``
#: from being recycled while the key exists.
_KERNEL_STORE: Dict[tuple, Tuple[dict, GeneratedKernel]] = {}


def stored_microkernel(
    mr: int, nr: int, lib: Optional[dict] = None, variant: str = "auto"
) -> GeneratedKernel:
    """The ``mr x nr`` kernel for ``lib``, generated once per process.

    Every consumer — the per-machine registries, the VLA plans' parts, the
    verifier and the tuner — reads kernels from this one store, so equal
    requests share one :class:`GeneratedKernel`.  Libraries are told apart
    by identity: a reduced-AVL ``vsetvl`` library is its own library.
    "auto" is resolved first, so it shares the entry of the flavour it
    picks.
    """
    lib = lib if lib is not None else _default_lib()
    key = (mr, nr, id(lib), _resolve_variant(mr, nr, lib, variant))
    entry = _KERNEL_STORE.get(key)
    if entry is None:
        kernel = generate_microkernel(mr, nr, lib, variant=key[3])
        entry = _KERNEL_STORE[key] = (lib, kernel)
    return entry[1]


def _generate(
    reference: Procedure,
    name: str,
    mr: int,
    nr: int,
    lib: dict,
    variant: str,
    flavour: _Flavour,
) -> GeneratedKernel:
    """v1 (Figure 6): specialize ``reference`` to the tile; then v2..v6."""
    p = rename(reference, name).partial_eval(mr, nr)
    steps = {"v1_specialized": p}
    p = _schedule(p, flavour, lib, steps)
    return GeneratedKernel(
        proc=p,
        mr=mr,
        nr=nr,
        lanes=lib["lanes"],
        dtype=lib["dtype"],
        variant=variant,
        steps=steps,
    )


# ---------------------------------------------------------------------------
# Kernel flavours as data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Operand:
    """One input operand streamed through vector registers (Figure 9).

    ``buf`` is bound to the register buffer ``<first letter>_reg``, whose
    lane dimension replaces loop ``lane`` and whose outer ``dims`` are
    ``(extent, index)`` pairs, innermost first.  ``slot`` names the library
    instruction that fills a register ("load" or "broadcast"); ``fission``
    is how many loop levels the fill is hoisted, up to just under the
    k-loop.
    """

    buf: str
    lane: str
    dims: Tuple[Tuple[int, str], ...]
    slot: str
    fission: int


@dataclass(frozen=True)
class _Flavour:
    """The register-tile recipe of one kernel flavour (Figures 7-11).

    ``flatten`` loops (trip count 1) are unrolled away and ``split`` loops
    divided by the vector length into ``<loop>t``/``<loop>tt``; the C
    element ``c_access`` is staged into ``C_reg`` with lane loop
    ``c_lane`` and outer ``c_dims``; the ``operands`` are staged in order;
    the ``fma`` library slot replaces the update's lane loop, after the
    optional ``reorder``; the ``unroll`` loops are unrolled last (a '#1'
    selector skips the C-tile load nest, match #0).
    """

    split: Tuple[str, ...]
    c_access: str
    c_lane: str
    c_dims: Tuple[Tuple[int, str], ...]
    operands: Tuple[_Operand, ...]
    fma: str
    reorder: Optional[str] = None
    unroll: Tuple[str, ...] = ()
    flatten: Tuple[str, ...] = ()


def _packed(
    mr: int, nr: int, lib: dict, c: str = "C", b: str = "Bc"
) -> _Flavour:
    """Both panels vector-loaded; the FMA selects B lanes (the BLIS case)."""
    lanes = lib["lanes"]
    return _Flavour(
        split=("i", "j"),
        c_access=f"{c}[{lanes} * jt + jtt, {lanes} * it + itt]",
        c_lane="itt",
        c_dims=((mr // lanes, "it"), (nr, f"jt * {lanes} + jtt")),
        operands=(
            _Operand("Ac", "itt", ((mr // lanes, "it"),), "load", 4),
            _Operand(b, "jtt", ((nr // lanes, "jt"),), "load", 4),
        ),
        fma="fmla_lane",
        reorder="jtt it",
        unroll=("it #1", "jt #1"),
    )


def _broadcast(mr: int, nr: int, lib: dict) -> _Flavour:
    """C and A vectorized along i, B elements broadcast (III-B/III-C).

    Serves NR not a multiple of the vector length and ISAs without a
    lane-selecting FMA (AVX-512).  ISAs whose FMA takes a scalar operand
    (RVV's ``vfmacc.vf``, the ``fma_vf`` slot) leave B in memory: the
    broadcast fuses into the FMA, saving one op and one register per j.
    """
    lanes = lib["lanes"]
    fused_vf = lib.get("fma_vf") is not None
    operands = (_Operand("Ac", "itt", ((mr // lanes, "it"),), "load", 3),)
    if not fused_vf:
        operands += (_Operand("Bc", "itt", (), "broadcast", 2),)
    return _Flavour(
        split=("i",),
        c_access=f"C[j, {lanes} * it + itt]",
        c_lane="itt",
        c_dims=((mr // lanes, "it"), (nr, "j")),
        operands=operands,
        fma="fma_vf" if fused_vf else "fma",
        unroll=("it #1",),
    )


def _row(mr: int, nr: int, lib: dict) -> _Flavour:
    """The 1 x NR tile for m-dimension tails (Section III-B).

    With MR = 1 the transposed C tile is contiguous along j, so C and B
    vectorize along j and the single A element is broadcast -- the
    ``neon_vfmadd`` recipe of the paper's 1x8 and 1x12 ResNet kernels.
    """
    lanes = lib["lanes"]
    return _Flavour(
        flatten=("i",),
        split=("j",),
        c_access=f"C[{lanes} * jt + jtt, 0]",
        c_lane="jtt",
        c_dims=((nr // lanes, "jt"),),
        operands=(
            _Operand("Ac", "jtt", (), "broadcast", 2),
            _Operand("Bc", "jtt", ((nr // lanes, "jt"),), "load", 2),
        ),
        fma="fma",
        unroll=("jt #1",),
    )


_FLAVOURS = {"packed": _packed, "broadcast": _broadcast, "row": _row}


def _schedule(
    p: Procedure,
    flavour: _Flavour,
    lib: dict,
    steps: Optional[Dict[str, Procedure]] = None,
) -> Procedure:
    """Apply one flavour's recipe (v2..v6), recording steps when given."""
    lanes = lib["lanes"]
    c = flavour.c_access.partition("[")[0]

    def mark(step: str) -> None:
        if steps is not None:
            steps[step] = p

    # v2 -- match the loop structure to the vector length (Figure 7)
    for loop in flavour.flatten:
        p = unroll_loop(p, loop)
    for loop in flavour.split:
        parts = [f"{loop}t", f"{loop}tt"]
        p = divide_loop(p, loop, lanes, parts, perfect=True)
    mark("v2_loop_structure")

    # v3 -- bind the C tile to vector registers (Figure 8).  Allocations
    # lift, and the C load/store nests fission, out of the whole nest.
    depth = len(p.find(f"{c}[_] += _").parent_loops())
    p = stage_mem(p, f"{c}[_] += _", flavour.c_access, "C_reg")
    for extent, index in ((lanes, flavour.c_lane),) + flavour.c_dims:
        p = expand_dim(p, "C_reg", extent, index)
    p = lift_alloc(p, "C_reg", n_lifts=depth)
    p = autofission(p, p.find("C_reg[_] = _").after(), n_lifts=depth)
    p = autofission(p, p.find(f"{c}[_] = _").before(), n_lifts=depth)
    # the already-replaced load nest no longer matches the store
    p = replace(p, f"for {flavour.c_lane} in _: _", lib["load"])
    p = replace(p, f"for {flavour.c_lane} in _: _", lib["store"])
    p = set_memory(p, "C_reg", lib["memory"])
    mark("v3_c_registers")

    # v4 -- stream the operands through registers (Figure 9).  Fission
    # duplicates the levels a fill's indices use; loop-independent levels
    # are hoisted by the autofission prologue rule.
    for op in flavour.operands:
        reg = f"{op.buf[0]}_reg"
        p = bind_expr(p, f"{op.buf}[_]", reg)
        for extent, index in ((lanes, op.lane),) + op.dims:
            p = expand_dim(p, reg, extent, index)
        p = lift_alloc(p, reg, n_lifts=depth)
        fill = p.find(f"{reg}[_] = _").after()
        p = autofission(p, fill, n_lifts=op.fission)
        p = replace(p, f"for {op.lane} in _: _", lib[op.slot])
        p = set_memory(p, reg, lib["memory"])
    mark("v4_ab_registers")

    # v5 -- the FMA (Figure 10)
    if flavour.reorder:
        p = reorder_loops(p, flavour.reorder)
    p = replace(p, f"for {flavour.c_lane} in _: _", lib[flavour.fma])
    p = simplify(p)
    mark("v5_fma")

    # v6 -- unroll the register fills under the k-loop (Figure 11)
    if flavour.unroll:
        for loop in flavour.unroll:
            p = unroll_loop(p, loop)
        p = simplify(p)
        mark("v6_unrolled")
    return p


def _retype_reference(reference: Procedure, dtype: str) -> Procedure:
    """Retarget the f32 reference kernel to another precision (III-D)."""
    p = reference
    for arg in ("Ac", "Bc", "C"):
        p = set_precision(p, arg, dtype)
    return p


def generate_all_steps(
    mr: int = 8, nr: int = 12, lib: Optional[dict] = None
) -> List[Tuple[str, Procedure]]:
    """The full v1..v6 sequence for display (the paper's Section III demo)."""
    kernel = stored_microkernel(mr, nr, lib)
    return list(kernel.steps.items())


# ---------------------------------------------------------------------------
# Vector-length-agnostic (VLA) tiles
# ---------------------------------------------------------------------------


@dataclass
class VlaKernelPlan:
    """An ``mr x nr`` register tile realized on a VLA ISA.

    On Neon or AVX-512 an MR that is not a multiple of the vector length
    forces padded work or a scalar tail.  A VLA ISA (RVV) instead re-runs
    the *same* instructions with ``vsetvl`` narrowed to the remainder, so
    the tile splits by rows into full-width parts plus one reduced-AVL
    tail part — every flop useful, no masking.

    Attributes:
        parts: ``(row_offset, kernel)`` pairs; each kernel computes rows
            ``[row_offset, row_offset + kernel.mr)`` of the tile.
        mr, nr: the logical tile shape the parts cover.
        lanes: full vector length of the target.
    """

    parts: List[Tuple[int, GeneratedKernel]]
    mr: int
    nr: int
    lanes: int

    @property
    def tail(self) -> Optional[GeneratedKernel]:
        """The reduced-AVL part, if the tile needed one (the 1-row tile
        takes the full-width row schedule instead, so it has no tail)."""
        kernel = self.parts[-1][1]
        return kernel if kernel.lanes != self.lanes else None

    def flops_per_k(self) -> int:
        return 2 * self.mr * self.nr

    def interpret(self, kc, ac, bc, c) -> None:
        """Run every part on the matching column slice of Ac and C."""
        for off, kernel in self.parts:
            hi = off + kernel.mr
            kernel.proc.interpret(kc, ac[:, off:hi], bc, c[:, off:hi])


def generate_vla_microkernel(
    mr: int,
    nr: int,
    lib_factory,
    variant: str = "auto",
) -> VlaKernelPlan:
    """Generate an ``mr x nr`` tile for a VLA ISA, any MR.

    ``lib_factory(avl)`` must return an instruction library specialized to
    an active vector length (see :func:`repro.isa.rvv.rvv_lib_factory`).
    Rows split into full-vector-length body parts plus one tail part whose
    library is specialized to the remainder — the ``vsetvl`` predication
    path, modelled exactly as RVV hardware executes it.  The parts come
    from the process-wide store (:func:`stored_microkernel`).
    """
    full_lib = lib_factory(None)
    lanes = full_lib["lanes"]
    if variant == "auto" and mr == 1 and nr % lanes == 0:
        # the 1-row tail vectorizes along j at full width (row schedule)
        # rather than degenerating to a 1-lane vsetvl
        kernel = stored_microkernel(1, nr, full_lib)
        return VlaKernelPlan(
            parts=[(0, kernel)], mr=mr, nr=nr, lanes=lanes
        )
    parts: List[Tuple[int, GeneratedKernel]] = []
    body_rows = (mr // lanes) * lanes
    if body_rows:
        parts.append(
            (0, stored_microkernel(body_rows, nr, full_lib, variant=variant))
        )
    tail = mr % lanes
    if tail:
        tail_lib = lib_factory(tail)
        parts.append(
            (body_rows, stored_microkernel(tail, nr, tail_lib, variant))
        )
    return VlaKernelPlan(parts=parts, mr=mr, nr=nr, lanes=lanes)
