"""Pseudo-assembly backend: what the kernel's k-loop compiles to.

The paper's Figure 12 inspects the gcc-compiled k-loop of the generated
8x12 kernel and finds it as tight as BLIS's hand-written assembly: two
``ldp`` + one ``ldr`` loads (5 quad registers of A and B), 24 ``fmla``, and
the loop carried bookkeeping (pointer increments, compare, branch).

How a finished schedule unrolls is decided here, once:
:func:`unroll_schedule` walks it into phase-tagged (``pre`` / ``k`` /
``post``) :class:`Step` entries, every static loop unrolled and every
register window keyed.  This listing, the timing model's trace
(:func:`repro.sim.pipeline.trace_from_kernel`) and the verifier all read
that stream; ``GeneratedKernel.unrolled`` keeps one per kernel.

The listing reproduces Figure 12 without a C compiler: it allocates ARM
vector registers to the k-loop's register keys, pairs adjacent loads
into ``ldp``, and emits a Figure-12-style listing.  The instruction
counts are what the tests and the Fig 12 benchmark assert on; the
listing itself is for humans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..affine import linearize
from ..loopir import Call, Const, Expr, For, Point, Proc, Read, Reduce
from ..loopir import Stmt, WindowExpr
from ..prelude import CodegenError, Sym
from ..traversal import subst_expr
from ..typesys import INDEX


@dataclass
class AsmOp:
    """One pseudo-assembly operation."""

    mnemonic: str  # ldr | ldp | str | stp | fmla | fmul | fadd | dup | add | cmp | bne
    text: str
    pipe: str = "alu"


@dataclass
class AsmTrace:
    """A rendered k-loop body plus instruction statistics."""

    ops: List[AsmOp]
    reg_count: int

    def count(self, mnemonic: str) -> int:
        return sum(1 for op in self.ops if op.mnemonic == mnemonic)

    @property
    def listing(self) -> str:
        lines = [".Lkloop:"]
        lines.extend(f"    {op.text}" for op in self.ops)
        return "\n".join(lines)

    def vector_loads(self) -> int:
        """Quad-register loads, counting an ``ldp`` as two."""
        return self.count("ldr") + 2 * self.count("ldp")


def _find_k_loop(ir: Proc) -> For:
    """The main accumulation loop: the loop bounded by the KC argument
    that holds the accumulating (reduce-bodied) instruction (the scaled
    kernel's ``Ba = Bc * alpha`` nest is a KC loop too)."""
    k_syms = {a.name for a in ir.args if a.type.is_indexable()}
    loops = [s for s in ir.body if isinstance(s, For)]
    k_loops = [
        s for s in loops if isinstance(s.hi, Read) and s.hi.name in k_syms
    ]
    ranked = [s for s in k_loops if accumulates(s.body)] + k_loops + loops
    if not ranked:
        raise CodegenError(f"{ir.name} has no loops to render")
    return ranked[0]


def accumulates(block) -> bool:
    """Whether the block reduces into a buffer, directly or through a
    called instruction."""
    return any(
        isinstance(s, Reduce)
        or isinstance(s, For) and accumulates(s.body)
        or isinstance(s, Call) and accumulates(s.proc.body)
        for s in block
    )


#: the longest static inner loop the k-loop body may unroll
UNROLL_BOUND = 64


@dataclass(frozen=True, slots=True)
class Step:
    """One entry of a finished schedule's unrolled instruction stream.

    ``phase`` is ``pre``, ``k`` (the k-loop body, walked once with the
    k iterator left free) or ``post``.  ``kind`` is ``call`` (one
    instance of a call), ``loop`` (a non-static loop: its body follows
    once, the iterator left free), ``long`` (a static loop longer than
    ``UNROLL_BOUND``: its unrolled body follows) or ``other`` (any other
    statement inside a loop).  ``args`` resolves a call's arguments
    under the values of the loops unrolled around it: a window's
    register key (the buffer and each index's affine form), a scalar's
    affine form, None where either is not affine even then.  ``dynamic``
    marks a step inside a non-static loop.
    """

    phase: str
    kind: str
    stmt: Stmt
    args: Tuple[Optional[tuple], ...] = ()
    dynamic: bool = False

    def key(self, i: int) -> tuple:
        """The register key of window argument ``i``."""
        key = self.args[i]
        if key is None:
            raise CodegenError("non-affine index in assembly generation")
        return key


def _resolved(e: Expr, env: Dict[Sym, int], lins: dict):
    """``e`` as ``(sorted (symbol id, coefficient) terms, offset)`` with
    the iterators in ``env`` replaced by their values, or None when it is
    not affine even then.  ``lins`` memoizes linear forms by node id."""
    if id(e) not in lins:
        lins[id(e)] = linearize(e)
    lin = lins[id(e)]
    if lin is None and env:
        consts = {sym: Const(v, INDEX) for sym, v in env.items()}
        lin = linearize(subst_expr(e, consts))
    if lin is None:
        return None
    terms = lin.terms.items()
    offset = lin.offset + sum(c * env[s] for s, c in terms if s in env)
    return tuple(sorted((s.id, c) for s, c in terms if s not in env)), offset


def _constant(resolved) -> Optional[int]:
    return None if resolved is None or resolved[0] else resolved[1]


def _window_key(w: WindowExpr, env: Dict[Sym, int], lins: dict):
    """Identify one register (vector) of a register-file buffer."""
    parts: List[object] = [w.name]
    for item in w.idx:
        if isinstance(item, Point):
            part = _resolved(item.pt, env, lins)
        else:
            part = _resolved(item.lo, env, lins)
            part = None if part is None else ("iv", part)
        if part is None:
            return None
        parts.append(part)
    return tuple(parts)


def unroll_schedule(ir: Proc) -> Tuple[Step, ...]:
    """Unroll a finished schedule once into its instruction stream.

    The top-level calls and loops ahead of the k-loop are phase ``pre``,
    the k-loop body ``k`` and the rest ``post``; other top-level
    statements are left out.  Every static loop unrolls completely, its
    iterator's value resolved where window keys and inner bounds read it
    (the same keys as rewriting the body once per iteration); a
    non-static loop is recorded and its body walked once.  The
    Figure-12 listing, the timing model's trace and the verifier all
    read this one stream; ``GeneratedKernel.unrolled`` keeps it.
    """
    kloop = _find_k_loop(ir)
    steps: List[Step] = []
    lins: dict = {}
    # equal keys share one tuple: the stream lives as long as its kernel
    interned: dict = {}

    def resolve(a: Expr, env: Dict[Sym, int]):
        if isinstance(a, WindowExpr):
            arg = _window_key(a, env, lins)
        else:
            arg = _resolved(a, env, lins)
        return arg if arg is None else interned.setdefault(arg, arg)

    def walk(block, phase: str, env: Dict[Sym, int], dynamic: bool):
        for s in block:
            if isinstance(s, Call):
                args = tuple(resolve(a, env) for a in s.args)
                steps.append(Step(phase, "call", s, args, dynamic))
            elif isinstance(s, For):
                lo = _constant(_resolved(s.lo, env, lins))
                hi = _constant(_resolved(s.hi, env, lins))
                if lo is None or hi is None:
                    steps.append(Step(phase, "loop", s, (), dynamic))
                    walk(s.body, phase, env, True)
                    continue
                if hi - lo > UNROLL_BOUND:
                    steps.append(Step(phase, "long", s, (), dynamic))
                for i in range(lo, hi):
                    walk(s.body, phase, {**env, s.iter: i}, dynamic)
            else:
                steps.append(Step(phase, "other", s, (), dynamic))

    phase = "pre"
    for s in ir.body:
        if s is kloop:
            walk(s.body, "k", {}, False)
            phase = "post"
        elif isinstance(s, (Call, For)):
            walk((s,), phase, {}, False)
    return tuple(steps)


def k_loop_calls(steps: Sequence[Step]) -> List[Step]:
    """The k-loop's call steps, for the listing and the timing trace.

    Raises :class:`CodegenError` where the k-loop body is not straight
    instruction calls once unrolled: a non-static loop, a loop longer
    than ``UNROLL_BOUND``, or any other statement.
    """
    calls = [step for step in steps if step.phase == "k"]
    for step in calls:
        if step.kind == "other":
            raise CodegenError(
                f"unexpected {type(step.stmt).__name__} inside the k-loop; "
                "only instruction calls survive a finished schedule"
            )
        if step.kind != "call":
            raise CodegenError(
                "assembly generation requires static inner loops"
            )
    return calls


def proc_to_asm(ir: Proc) -> AsmTrace:
    """Render the k-loop body of a scheduled kernel as pseudo-assembly."""
    registers: Dict[tuple, str] = {}
    ops: List[AsmOp] = []

    def vreg(key: tuple) -> str:
        if key not in registers:
            if len(registers) >= 32:
                raise CodegenError(
                    "register allocation exceeds the 32 ARM vector registers"
                )
            registers[key] = f"v{len(registers)}"
        return registers[key]

    for step in k_loop_calls(unroll_schedule(ir)):
        call = step.stmt
        info = call.proc.instr
        if info is None:
            raise CodegenError(f"call to non-instruction {call.proc.name}")
        pipe = info.pipe
        if pipe == "load":
            reg = vreg(step.key(0))
            src = call.args[1]
            src_name = src.name.name if isinstance(src, (WindowExpr, Read)) else "?"
            base = f"[x_{src_name}]"
            last = ops[-1] if ops else None
            if "dup" in call.proc.name or "set1" in call.proc.name:
                ops.append(AsmOp("dup", f"ld1r {{{reg}.4s}}, {base}", "load"))
            elif last and last.mnemonic == "ldr" and last.text.endswith(base):
                # gcc pairs back-to-back quad loads from one buffer into
                # a load pair (Figure 12 lines 2 and 4)
                first = last.text.split()[1]
                ops[-1] = AsmOp("ldp", f"ldp {first} q{reg[1:]}, {base}", "load")
            else:
                ops.append(AsmOp("ldr", f"ldr q{reg[1:]}, {base}", "load"))
        elif pipe == "store":
            reg = vreg(step.key(1))
            dst = call.args[0]
            dst_name = dst.name.name if isinstance(dst, (WindowExpr, Read)) else "?"
            ops.append(AsmOp("str", f"str q{reg[1:]}, [x_{dst_name}]", "store"))
        elif pipe == "fma":
            acc = vreg(step.key(0))
            srcs = []
            lane = None
            for i, actual in enumerate(call.args[1:], 1):
                if isinstance(actual, WindowExpr):
                    srcs.append(vreg(step.key(i)))
                else:
                    lane = i
            if lane is not None:
                lane_txt = _render_lane(call.args[lane], step.args[lane])
                text = f"fmla {acc}.4s, {srcs[0]}.4s, {srcs[1]}.s[{lane_txt}]"
            elif len(srcs) == 2:
                text = f"fmla {acc}.4s, {srcs[0]}.4s, {srcs[1]}.4s"
            else:
                text = f"fmla {acc}.4s, {srcs[0]}.4s, {srcs[0]}.4s"
            ops.append(AsmOp("fmla", text, "fma"))
        else:
            ops.append(AsmOp("alu", f"; {call.proc.name}", "alu"))

    # loop bookkeeping, as in Figure 12
    ops.append(AsmOp("add", "add x0, x0, 1", "alu"))
    ops.append(AsmOp("cmp", "cmp x1, x0", "alu"))
    ops.append(AsmOp("bne", "bne .Lkloop", "alu"))
    return AsmTrace(ops=ops, reg_count=len(registers))


def _render_lane(lane: Expr, resolved) -> str:
    val = _constant(resolved)
    if val is not None:
        return str(val)
    if isinstance(lane, Read):
        return lane.name.name
    return "?"
