"""Pseudo-assembly backend: what the kernel's k-loop compiles to.

The paper's Figure 12 inspects the gcc-compiled k-loop of the generated
8x12 kernel and finds it as tight as BLIS's hand-written assembly: two
``ldp`` + one ``ldr`` loads (5 quad registers of A and B), 24 ``fmla``, and
the loop carried bookkeeping (pointer increments, compare, branch).

This backend reproduces that artifact without a C compiler: it walks the
k-loop body of a scheduled kernel, allocates ARM vector registers to the
register-file buffer elements, pairs adjacent loads into ``ldp``, and emits
a Figure-12-style listing.  The instruction counts are what the tests and
the Fig 12 benchmark assert on; the listing itself is for humans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..affine import try_constant
from ..loopir import Call, Const, Expr, For, Point, Proc, Read, Reduce
from ..loopir import WindowExpr
from ..prelude import CodegenError


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

    def vector_stores(self) -> int:
        return self.count("str") + 2 * self.count("stp")


class _RegAlloc:
    """Map register-file buffer elements to ARM vector register names."""

    def __init__(self):
        self.assigned: Dict[tuple, str] = {}
        self.next_reg = 0

    def reg_for(self, key: tuple) -> str:
        if key not in self.assigned:
            if self.next_reg >= 32:
                raise CodegenError(
                    "register allocation exceeds the 32 ARM vector registers"
                )
            self.assigned[key] = f"v{self.next_reg}"
            self.next_reg += 1
        return self.assigned[key]

    @property
    def used(self) -> int:
        return self.next_reg


def _window_key(w: WindowExpr) -> tuple:
    """Identify one register (vector) of a register-file buffer."""
    parts: List[object] = [w.name]
    for item in w.idx:
        if isinstance(item, Point):
            parts.append(_expr_key(item.pt))
        else:
            parts.append(("iv", _expr_key(item.lo)))
    return tuple(parts)


def _expr_key(e: Expr):
    from ..affine import linearize

    lin = linearize(e)
    if lin is None:
        raise CodegenError(f"non-affine index in assembly generation")
    return (tuple(sorted((s.id, c) for s, c in lin.terms.items())), lin.offset)


def _find_k_loop(ir: Proc) -> For:
    """The main accumulation loop: the loop bounded by the KC argument
    that holds the accumulating (reduce-bodied) instruction (the scaled
    kernel's ``Ba = Bc * alpha`` nest is a KC loop too)."""
    k_syms = {a.name for a in ir.args if a.type.is_indexable()}
    loops = [s for s in ir.body if isinstance(s, For)]
    k_loops = [
        s for s in loops if isinstance(s.hi, Read) and s.hi.name in k_syms
    ]
    ranked = [s for s in k_loops if _accumulates(s.body)] + k_loops + loops
    if not ranked:
        raise CodegenError(f"{ir.name} has no loops to render")
    return ranked[0]


def _accumulates(block) -> bool:
    """Whether the block reduces into a buffer, directly or through a
    called instruction."""
    return any(
        isinstance(s, Reduce)
        or isinstance(s, For) and _accumulates(s.body)
        or isinstance(s, Call) and _accumulates(s.proc.body)
        for s in block
    )


#: the longest static inner loop the k-loop body may unroll
UNROLL_BOUND = 64


def _flatten_calls(block) -> List[Call]:
    """All instruction calls in the block, unrolling static inner loops."""
    calls: List[Call] = []
    for s in block:
        if isinstance(s, Call):
            calls.append(s)
        elif isinstance(s, For):
            lo, hi = try_constant(s.lo), try_constant(s.hi)
            if lo is None or hi is None or hi - lo > UNROLL_BOUND:
                raise CodegenError(
                    "assembly generation requires static inner loops"
                )
            from ..traversal import subst_stmts
            from ..typesys import INDEX

            for i in range(lo, hi):
                body = subst_stmts(s.body, {s.iter: Const(i, INDEX)})
                calls.extend(_flatten_calls(body))
        else:
            raise CodegenError(
                f"unexpected {type(s).__name__} inside the k-loop; "
                "only instruction calls survive a finished schedule"
            )
    return calls


def proc_to_asm(ir: Proc) -> AsmTrace:
    """Render the k-loop body of a scheduled kernel as pseudo-assembly."""
    kloop = _find_k_loop(ir)
    calls = _flatten_calls(kloop.body)
    regs = _RegAlloc()
    ops: List[AsmOp] = []

    # pre-assign C accumulator registers (they live across the loop)
    loads: List[Tuple[str, str]] = []  # (reg, source buffer name)
    for call in calls:
        info = call.proc.instr
        if info is None:
            raise CodegenError(f"call to non-instruction {call.proc.name}")
        pipe = info.pipe
        if pipe == "load":
            dst = call.args[0]
            assert isinstance(dst, WindowExpr)
            reg = regs.reg_for(_window_key(dst))
            src = call.args[1]
            src_name = src.name.name if isinstance(src, (WindowExpr, Read)) else "?"
            if "dup" in call.proc.name or "set1" in call.proc.name:
                ops.append(
                    AsmOp("dup", f"ld1r {{{reg}.4s}}, [x_{src_name}]", "load")
                )
            else:
                loads.append((reg, src_name))
                ops.append(
                    AsmOp("ldr", f"ldr q{reg[1:]}, [x_{src_name}]", "load")
                )
        elif pipe == "store":
            src = call.args[1]
            assert isinstance(src, WindowExpr)
            reg = regs.reg_for(_window_key(src))
            dst = call.args[0]
            dst_name = dst.name.name if isinstance(dst, (WindowExpr, Read)) else "?"
            ops.append(AsmOp("str", f"str q{reg[1:]}, [x_{dst_name}]", "store"))
        elif pipe == "fma":
            dst = call.args[0]
            assert isinstance(dst, WindowExpr)
            acc = regs.reg_for(_window_key(dst))
            srcs = []
            lane = None
            for formal, actual in zip(call.proc.args[1:], call.args[1:]):
                if isinstance(actual, WindowExpr):
                    srcs.append(regs.reg_for(_window_key(actual)))
                else:
                    lane = actual
            if lane is not None:
                lane_txt = _render_lane(lane)
                text = f"fmla {acc}.4s, {srcs[0]}.4s, {srcs[1]}.s[{lane_txt}]"
            elif len(srcs) == 2:
                text = f"fmla {acc}.4s, {srcs[0]}.4s, {srcs[1]}.4s"
            else:
                text = f"fmla {acc}.4s, {srcs[0]}.4s, {srcs[0]}.4s"
            ops.append(AsmOp("fmla", text, "fma"))
        else:
            ops.append(AsmOp("alu", f"; {call.proc.name}", "alu"))

    ops = _pair_loads(ops)
    # loop bookkeeping, as in Figure 12
    ops.append(AsmOp("add", "add x0, x0, 1", "alu"))
    ops.append(AsmOp("cmp", "cmp x1, x0", "alu"))
    ops.append(AsmOp("bne", "bne .Lkloop", "alu"))
    return AsmTrace(ops=ops, reg_count=regs.used)


def _render_lane(lane: Expr) -> str:
    val = try_constant(lane)
    if val is not None:
        return str(val)
    if isinstance(lane, Read):
        return lane.name.name
    return "?"


def _pair_loads(ops: List[AsmOp]) -> List[AsmOp]:
    """Fuse adjacent ``ldr`` from the same base buffer into ``ldp``.

    gcc emits load-pair instructions for back-to-back quad loads from
    consecutive addresses (Figure 12 lines 2 and 4); we apply the same
    peephole so instruction counts line up.
    """
    out: List[AsmOp] = []
    i = 0
    while i < len(ops):
        op = ops[i]
        if (
            op.mnemonic == "ldr"
            and i + 1 < len(ops)
            and ops[i + 1].mnemonic == "ldr"
            and _load_base(op) == _load_base(ops[i + 1])
        ):
            r1 = op.text.split()[1].rstrip(",")
            r2 = ops[i + 1].text.split()[1].rstrip(",")
            base = _load_base(op)
            out.append(AsmOp("ldp", f"ldp {r1}, {r2}, [{base}]", "load"))
            i += 2
            continue
        out.append(op)
        i += 1
    return out


def _load_base(op: AsmOp) -> str:
    return op.text.split("[")[-1].rstrip("]")
