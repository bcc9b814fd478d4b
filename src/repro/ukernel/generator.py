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
flavours is data: a ``_Flavour`` record names the loops to split and the
library slots each step uses, and a ``_Stage`` record says how one
register buffer is staged (the C tile in v3, each operand in v4): the
access it binds, its register dims, how far it lifts, its fissions and
the slots that replace its lane loops.  ``_schedule`` and its staging
step are the only code here that calls scheduling primitives.  The
flavours are **packed** (the BLIS case: both panels vector-loaded, the
FMA selects B lanes), **broadcast** (Sections III-B/III-C: B elements
broadcast into the plain vector FMA, for NR off the vector length or
ISAs without a lane FMA such as AVX-512) and **row** (1 x NR tails);
:mod:`repro.ukernel.extended` adds the non-packed and scaled recipes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core import DRAM, Procedure, proc
from repro.core.codegen import asm
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

if TYPE_CHECKING:
    from repro.core.codegen.asm import Step
    from repro.sim.pipeline import KernelTrace


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


@functools.lru_cache(maxsize=None)
def _shared_reference() -> Procedure:
    """The Figure-5 reference, parsed once per process.

    Scheduling never mutates a procedure, so every generation can start
    from the same one; :func:`make_reference_kernel` still returns a
    fresh parse.
    """
    return make_reference_kernel()


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
        trace: the timing model's k-loop trace of ``proc``, built on
            first use by :func:`repro.sim.pipeline.trace_from_kernel`
            and shared by every consumer.  It and :attr:`unrolled`
            belong to this ``proc``: derive a changed kernel with
            ``dataclasses.replace``, which starts without either.
    """

    proc: Procedure
    mr: int
    nr: int
    lanes: int
    dtype: str
    variant: str
    steps: Dict[str, Procedure]
    trace: Optional[KernelTrace] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def name(self) -> str:
        return self.proc.name()

    @functools.cached_property
    def unrolled(self) -> Tuple[Step, ...]:
        """``proc``'s instruction stream (:func:`~repro.core.codegen.asm.
        unroll_schedule`), read by the trace and the verifier."""
        return asm.unroll_schedule(self.proc.ir)

    def flops_per_k(self) -> int:
        return 2 * self.mr * self.nr


# ---------------------------------------------------------------------------
# Scheduling pipeline
# ---------------------------------------------------------------------------


def generate_microkernel(
    mr: int, nr: int, lib: Optional[dict] = None, variant: str = "auto"
) -> GeneratedKernel:
    """Generate an ``mr x nr`` micro-kernel for the given instruction library.

    ``variant`` selects the kernel flavour: "packed", "broadcast", "row",
    or "auto" (the first of those the tile and library allow — the
    paper's edge-case recipe).  Every call schedules a fresh kernel from
    the one reference kernel parsed per process;
    :func:`stored_microkernel` builds each distinct one once per process.
    """
    lib = lib if lib is not None else _default_lib()
    variant = _resolve_variant(mr, nr, lib, variant)
    reference = _shared_reference()
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

    Every consumer — :meth:`repro.isa.targets.IsaTarget.get`, the VLA
    tiles' parts, the verifier and the tuner — reads kernels from this
    one store, so equal requests share one :class:`GeneratedKernel`.
    Libraries are told apart by identity: a reduced-AVL ``vsetvl``
    library is its own library.
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
    """v1 (Figure 6): specialize ``reference`` to the tile; then the
    flavour's recipe."""
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
class _Stage:
    """One register-staging step (Figures 8 and 9).

    The first read ``bind`` (``'Buf[_]'``) is bound to the register
    buffer ``reg``, or the element of ``stage = (statement pattern,
    access)`` staged through it.  ``dims`` are its ``(extent, index)``
    dims, lane first.  It lifts ``lifts`` loop levels, then each
    ``(pattern, side, n_lifts)`` of ``fissions`` splits the loops at the
    gap ``side`` ("before" or "after") of the matched statement (a
    ``None`` count: the update's loop depth).  The library ``slots``
    replace its lane loops, in order.
    """

    reg: str
    dims: Tuple[Tuple[int, str], ...]
    slots: Tuple[str, ...]
    bind: str = ""
    stage: Optional[Tuple[str, str]] = None
    lifts: Optional[int] = None
    fissions: Tuple[Tuple[str, str, Optional[int]], ...] = ()


def _c_tile(access: str, dims: Tuple[Tuple[int, str], ...]) -> _Stage:
    """The C tile staged through ``C_reg`` (Figure 8); its load and
    store nests fission, and the allocation lifts, out of the whole nest."""
    c = access.partition("[")[0]
    fissions = (("C_reg[_] = _", "after", None),
                (f"{c}[_] = _", "before", None))
    return _Stage("C_reg", dims, ("load", "store"),
                  stage=(f"{c}[_] += _", access), fissions=fissions)


def _operand(buf: str, dims, slot: str, fission: int) -> _Stage:
    """An input operand streamed through ``<first letter>_reg`` (Figure
    9): ``slot`` fills it, hoisted ``fission`` levels up to just under
    the k-loop."""
    reg = f"{buf[0]}_reg"
    return _Stage(reg, dims, (slot,), bind=f"{buf}[_]",
                  fissions=((f"{reg}[_] = _", "after", fission),))


#: The step each phase of :func:`_schedule` records: the register tile's
#: v2..v6.
_TILE_STEPS = (("split", "v2_loop_structure"), ("c", "v3_c_registers"),
               ("operands", "v4_ab_registers"), ("fma", "v5_fma"),
               ("unroll", "v6_unrolled"))


@dataclass(frozen=True)
class _Flavour:
    """The recipe of one kernel flavour (Figures 7-11).

    ``flatten`` loops (trip count 1) are unrolled away and ``split`` loops
    divided by the vector length into ``<loop>t``/``<loop>tt``; the C
    tile ``c`` is staged, then the ``operands`` in order; the ``fma``
    library slot replaces the update's lane loop, after the optional
    ``reorder``; the ``unroll`` loops are unrolled last (a '#1' selector
    skips the C-tile load nest, match #0).  The ``before`` and ``after``
    nests around the tile are ``(loop, stages)`` pairs: ``loop`` splits
    like ``split``, then its stages run and the proc is simplified.
    ``steps`` names the step each phase records.
    """

    split: Tuple[str, ...]
    c: _Stage
    operands: Tuple[_Stage, ...]
    fma: str
    reorder: Optional[str] = None
    unroll: Tuple[str, ...] = ()
    flatten: Tuple[str, ...] = ()
    before: Tuple[Tuple[str, Tuple[_Stage, ...]], ...] = ()
    after: Tuple[Tuple[str, Tuple[_Stage, ...]], ...] = ()
    steps: Tuple[Tuple[str, str], ...] = _TILE_STEPS


def _packed(
    mr: int, nr: int, lib: dict, c: str = "C", b: str = "Bc"
) -> _Flavour:
    """Both panels vector-loaded; the FMA selects B lanes (the BLIS case)."""
    lanes = lib["lanes"]
    return _Flavour(
        split=("i", "j"),
        c=_c_tile(
            f"{c}[{lanes} * jt + jtt, {lanes} * it + itt]",
            ((lanes, "itt"), (mr // lanes, "it"), (nr, f"jt * {lanes} + jtt")),
        ),
        operands=(
            _operand("Ac", ((lanes, "itt"), (mr // lanes, "it")), "load", 4),
            _operand(b, ((lanes, "jtt"), (nr // lanes, "jt")), "load", 4),
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
    operands = (
        _operand("Ac", ((lanes, "itt"), (mr // lanes, "it")), "load", 3),
    )
    if not fused_vf:
        operands += (_operand("Bc", ((lanes, "itt"),), "broadcast", 2),)
    return _Flavour(
        split=("i",),
        c=_c_tile(
            f"C[j, {lanes} * it + itt]",
            ((lanes, "itt"), (mr // lanes, "it"), (nr, "j")),
        ),
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
        c=_c_tile(
            f"C[{lanes} * jt + jtt, 0]", ((lanes, "jtt"), (nr // lanes, "jt"))
        ),
        operands=(
            _operand("Ac", ((lanes, "jtt"),), "broadcast", 2),
            _operand("Bc", ((lanes, "jtt"), (nr // lanes, "jt")), "load", 2),
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
    """Apply one flavour's recipe (the nests before the register tile,
    v2..v6, the nests after), recording steps when given."""
    lanes = lib["lanes"]
    names = dict(flavour.steps)

    def mark(phase: str) -> None:
        if steps is not None and phase in names:
            steps[names[phase]] = p

    def split(p: Procedure, loop: str) -> Procedure:
        parts = [f"{loop}t", f"{loop}tt"]
        return divide_loop(p, loop, lanes, parts, perfect=True)

    def nests(p: Procedure, pairs) -> Procedure:
        for loop, stages in pairs:
            p = split(p, loop)
            for stage in stages:
                p = _stage(p, stage, lib)
            p = simplify(p)
        return p

    p = nests(p, flavour.before)
    mark("before")

    # v2 -- match the loop structure to the vector length (Figure 7)
    for loop in flavour.flatten:
        p = unroll_loop(p, loop)
    for loop in flavour.split:
        p = split(p, loop)
    mark("split")

    # v3 -- bind the C tile to vector registers (Figure 8).  The update's
    # loop depth is how far the tile's stages lift and fission by default.
    depth = len(p.find(flavour.c.stage[0]).parent_loops())
    p = _stage(p, flavour.c, lib, depth)
    mark("c")

    # v4 -- stream the operands through registers (Figure 9).  Fission
    # duplicates the levels a fill's indices use; loop-independent levels
    # are hoisted by the autofission prologue rule.
    for operand in flavour.operands:
        p = _stage(p, operand, lib, depth)
    mark("operands")

    # v5 -- the FMA (Figure 10)
    if flavour.reorder:
        p = reorder_loops(p, flavour.reorder)
    p = replace(p, f"for {flavour.c.dims[0][1]} in _: _", lib[flavour.fma])
    p = simplify(p)
    mark("fma")

    # v6 -- unroll the register fills under the k-loop (Figure 11)
    if flavour.unroll:
        for loop in flavour.unroll:
            p = unroll_loop(p, loop)
        p = simplify(p)
        mark("unroll")

    p = nests(p, flavour.after)
    mark("after")
    return p


def _stage(
    p: Procedure, record: _Stage, lib: dict, depth: Optional[int] = None
) -> Procedure:
    """Run one staging record: bind or stage its access, grow the buffer
    to its register dims, lift it, fission its fills and drains, replace
    its lane loops with library instructions and place it in registers."""
    reg = record.reg
    if record.stage:
        p = stage_mem(p, *record.stage, reg)
    else:
        p = bind_expr(p, record.bind, reg)
    for extent, index in record.dims:
        p = expand_dim(p, reg, extent, index)
    lifts = depth if record.lifts is None else record.lifts
    p = lift_alloc(p, reg, n_lifts=lifts)
    for pattern, side, n_lifts in record.fissions:
        gap = getattr(p.find(pattern), side)()
        p = autofission(p, gap, n_lifts=depth if n_lifts is None else n_lifts)
    lane = record.dims[0][1]
    for slot in record.slots:
        p = replace(p, f"for {lane} in _: _", lib[slot])
    return set_memory(p, reg, lib["memory"])


def _retype_reference(reference: Procedure, dtype: str) -> Procedure:
    """Retarget the f32 reference kernel to another precision (III-D)."""
    p = reference
    for arg in ("Ac", "Bc", "C"):
        p = set_precision(p, arg, dtype)
    return p


# ---------------------------------------------------------------------------
# Vector-length-agnostic (VLA) tiles
# ---------------------------------------------------------------------------


def generate_vla_microkernel(
    mr: int, nr: int, lib_factory
) -> List[Tuple[int, GeneratedKernel]]:
    """The kernels of an ``mr x nr`` tile on a VLA ISA, any MR, as
    ``(row_offset, kernel)`` parts; each kernel computes rows
    ``[row_offset, row_offset + kernel.mr)`` of the tile.

    On Neon or AVX-512 an MR that is not a multiple of the vector length
    forces padded work or a scalar tail.  A VLA ISA (RVV) instead re-runs
    the *same* instructions with ``vsetvl`` narrowed to the remainder:
    ``lib_factory(avl)`` must return an instruction library specialized
    to an active vector length (see :func:`repro.isa.rvv.rvv_lib_factory`),
    and the rows split into a full-vector-length body part plus one tail
    part whose library is specialized to the remainder, every flop
    useful, no masking.  The parts come from the process-wide store
    (:func:`stored_microkernel`).
    """
    full_lib = lib_factory(None)
    lanes = full_lib["lanes"]
    if mr == 1 and nr % lanes == 0:
        # the 1-row tail vectorizes along j at full width (row schedule)
        # rather than degenerating to a 1-lane vsetvl
        return [(0, stored_microkernel(1, nr, full_lib))]
    parts: List[Tuple[int, GeneratedKernel]] = []
    body_rows = (mr // lanes) * lanes
    if body_rows:
        parts.append((0, stored_microkernel(body_rows, nr, full_lib)))
    tail = mr % lanes
    if tail:
        tail_kernel = stored_microkernel(tail, nr, lib_factory(tail))
        parts.append((body_rows, tail_kernel))
    return parts
