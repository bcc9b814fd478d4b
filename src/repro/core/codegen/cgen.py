"""Plain-C backend.

Emits the kind of C code the paper's generator produces: a function whose
loops, scalar statements, and intrinsic calls mirror the scheduled IR.
Intrinsic calls splice the instruction's ``c_instr`` format string, with
``{arg_data}`` holes receiving the C lvalue of the argument window's base
element — the convention of the paper's Figure 3 (``&{src_data}`` takes an
address, ``{dst_data}`` names a vector variable).

Layout rules:

* DRAM tensors become flat row-major arrays indexed by computed offsets.
* Register-file tensors whose innermost extent equals the register lane
  count become arrays of vector variables (``float32x4_t C_reg[12][2];``),
  dropping the lane dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..affine import try_constant
from ..loopir import (
    Alloc,
    Assign,
    BinOp,
    Call,
    Const,
    Expr,
    For,
    Pass,
    Point,
    Proc,
    Read,
    Reduce,
    Stmt,
    StrideExpr,
    USub,
    WindowExpr,
)
from ..memory import DRAM, Memory
from ..prelude import CodegenError, FreshNamer, Sym
from ..typesys import TensorType

@dataclass(frozen=True)
class IsaEmitInfo:
    """Per-ISA emission hooks, keyed by register-file memory name.

    ``header`` is the intrinsic header include; ``prelude`` lines are
    emitted once at the top of any function touching the memory (RVV uses
    this for ``vsetvl``); ``extra_holes`` are format-string holes every
    intrinsic of the ISA may reference (RVV's ``{vl}``).
    """

    header: str = ""
    prelude: Tuple[str, ...] = ()
    extra_holes: Tuple[Tuple[str, str], ...] = ()


#: the ISA dispatch table: register-file memory name -> emission hooks
_ISA_EMIT: Dict[str, IsaEmitInfo] = {
    "Neon": IsaEmitInfo(header="#include <arm_neon.h>"),
    "Neon8f": IsaEmitInfo(header="#include <arm_neon.h>"),
    "AVX512": IsaEmitInfo(header="#include <immintrin.h>"),
}


def register_isa_codegen(mem_name: str, info: IsaEmitInfo) -> IsaEmitInfo:
    """Register emission hooks for a new ISA's register-file memory."""
    _ISA_EMIT[mem_name] = info
    return info


def isa_emit_info(mem: Memory) -> Optional[IsaEmitInfo]:
    return _ISA_EMIT.get(mem.name)


_C_KEYWORDS = {
    "for",
    "if",
    "else",
    "while",
    "return",
    "int",
    "float",
    "double",
    "void",
    "char",
    "const",
    "static",
}


class _CGen:
    def __init__(self, ir: Proc):
        self.ir = ir
        self.namer = FreshNamer(taken=set(_C_KEYWORDS))
        self.lines: List[str] = []
        self.depth = 1
        self.buf_info: Dict[Sym, tuple] = {}  # sym -> (type, mem, vectorized)
        self.globals: List[str] = []
        self.isa_infos: List[IsaEmitInfo] = []  # dispatch entries in use

    # -- naming and layout ----------------------------------------------------

    def name(self, sym: Sym) -> str:
        return self.namer.name_of(sym)

    def register_buffer(self, sym: Sym, typ, mem: Memory):
        vectorized = False
        if (
            mem.is_register_file
            and isinstance(typ, TensorType)
            and try_constant(typ.shape[-1]) == mem.lanes_for(typ.base.bits)
        ):
            vectorized = True
        self.buf_info[sym] = (typ, mem, vectorized)
        self.touch_isa(mem)

    def touch_isa(self, mem: Memory):
        info = isa_emit_info(mem)
        if info is not None and info not in self.isa_infos:
            self.isa_infos.append(info)

    def emit(self, text: str):
        self.lines.append("    " * self.depth + text)

    # -- expressions ------------------------------------------------------------

    def expr(self, e: Expr, prec: int = 0) -> str:
        if isinstance(e, Const):
            if isinstance(e.val, float):
                return f"{e.val!r}f"
            return str(e.val)
        if isinstance(e, Read):
            if not e.idx:
                return self.name(e.name)
            return self.element(e.name, list(e.idx))
        if isinstance(e, BinOp):
            text = f"{self.expr(e.lhs, 1)} {e.op} {self.expr(e.rhs, 2)}"
            return f"({text})" if prec > 0 else text
        if isinstance(e, USub):
            return f"-{self.expr(e.arg, 2)}"
        if isinstance(e, StrideExpr):
            raise CodegenError("stride() may only appear in predicates")
        raise CodegenError(f"cannot emit expression {type(e).__name__}")

    def element(self, sym: Sym, idx: List[Expr]) -> str:
        """C lvalue for one element (or vector register) of a buffer."""
        typ, mem, vectorized = self.buf_info[sym]
        name = self.name(sym)
        if not isinstance(typ, TensorType):
            return name
        dims = list(typ.shape)
        if vectorized:
            # drop the lane dimension: the register variable is the unit
            idx = idx[:-1]
            dims = dims[:-1]
            if not idx:
                return name
            parts = "".join(f"[{self.expr(i)}]" for i in idx)
            return f"{name}{parts}"
        # flat row-major offset
        offset = None
        for d, i in enumerate(idx):
            term = self.expr(i, 1)
            stride = self._stride_expr(dims, d)
            piece = term if stride == "1" else f"({term}) * {stride}"
            offset = piece if offset is None else f"{offset} + {piece}"
        return f"{name}[{offset or '0'}]"

    def _stride_expr(self, dims, d: int) -> str:
        trailing = dims[d + 1 :]
        if not trailing:
            return "1"
        parts = []
        for t in trailing:
            val = try_constant(t)
            parts.append(str(val) if val is not None else self.expr(t, 1))
        return " * ".join(parts)

    def window_base(self, w: WindowExpr) -> str:
        """C lvalue of the base element of a window argument."""
        idx = []
        for item in w.idx:
            if isinstance(item, Point):
                idx.append(item.pt)
            else:
                idx.append(item.lo)
        return self.element(w.name, idx)

    # -- statements -----------------------------------------------------------------

    def stmts(self, block):
        for s in block:
            self.stmt(s)

    def stmt(self, s: Stmt):
        if isinstance(s, (Assign, Reduce)):
            lhs = self.element(s.name, list(s.idx)) if s.idx else self.name(s.name)
            op = "+=" if isinstance(s, Reduce) else "="
            self.emit(f"{lhs} {op} {self.expr(s.rhs)};")
        elif isinstance(s, For):
            it = self.name(s.iter)
            self.emit(
                f"for (int_fast32_t {it} = {self.expr(s.lo)}; "
                f"{it} < {self.expr(s.hi)}; {it}++) {{"
            )
            self.depth += 1
            self.stmts(s.body)
            self.depth -= 1
            self.emit("}")
        elif isinstance(s, Alloc):
            self.register_buffer(s.name, s.type, s.mem)
            self.emit(self.declaration(s))
        elif isinstance(s, Call):
            self.call(s)
        elif isinstance(s, Pass):
            self.emit(";")
        else:
            raise CodegenError(f"cannot emit statement {type(s).__name__}")

    def declaration(self, s: Alloc) -> str:
        typ, mem, vectorized = self.buf_info[s.name]
        name = self.name(s.name)
        if not isinstance(typ, TensorType):
            return f"{typ.ctype()} {name};"
        if vectorized:
            vec = mem.vector_ctype(typ.base.name)
            dims = typ.shape[:-1]
            if not dims:
                return f"{vec} {name};"
            spec = "".join(f"[{self.expr(d)}]" for d in dims)
            return f"{vec} {name}{spec};"
        if mem.is_register_file:
            raise CodegenError(
                f"register-file buffer {name} has a non-lane innermost "
                f"dimension; cannot map it onto vector registers"
            )
        total = " * ".join(self.expr(d, 1) for d in typ.shape)
        return f"{typ.base.ctype()} {name}[{total}];"

    def call(self, s: Call):
        callee = s.proc
        if callee.instr is None:
            args = ", ".join(self.call_arg(a) for a in s.args)
            self.emit(f"{callee.name}({args});")
            return
        if callee.instr.c_global and callee.instr.c_global not in self.globals:
            self.globals.append(callee.instr.c_global)
        holes: Dict[str, str] = {}
        for formal in callee.args:
            if formal.mem is not None:
                info = isa_emit_info(formal.mem)
                if info is not None:
                    self.touch_isa(formal.mem)
                    holes.update(info.extra_holes)
        for formal, actual in zip(callee.args, s.args):
            base = formal.name.name
            if isinstance(actual, WindowExpr):
                self.touch(actual.name)
                holes[f"{base}_data"] = self.window_base(actual)
                holes[base] = self.window_base(actual)
            elif isinstance(actual, Read) and actual.type.is_tensor():
                self.touch(actual.name)
                holes[f"{base}_data"] = f"{self.name(actual.name)}[0]"
                holes[base] = self.name(actual.name)
            else:
                holes[base] = self.expr(actual, 1)
                holes[f"{base}_data"] = holes[base]
        try:
            text = callee.instr.c_instr.format(**holes)
        except KeyError as exc:
            raise CodegenError(
                f"instruction {callee.name} format references unknown "
                f"hole {exc}"
            ) from None
        self.emit(text)

    def call_arg(self, a: Expr) -> str:
        if isinstance(a, WindowExpr):
            self.touch(a.name)
            return f"&{self.window_base(a)}"
        if isinstance(a, Read) and a.type.is_tensor():
            self.touch(a.name)
            return self.name(a.name)
        return self.expr(a, 1)

    def touch(self, sym: Sym):
        if sym not in self.buf_info:
            raise CodegenError(f"buffer {sym} used before declaration")

    # -- top level ----------------------------------------------------------------------

    def generate(self) -> str:
        params = []
        for arg in self.ir.args:
            name = self.name(arg.name)
            if isinstance(arg.type, TensorType):
                self.register_buffer(arg.name, arg.type, arg.mem or DRAM)
                qual = "" if self._is_written(arg.name) else "const "
                params.append(f"{qual}{arg.type.base.ctype()}* restrict {name}")
            elif arg.type.is_indexable():
                params.append(f"int_fast32_t {name}")
            else:
                params.append(f"{arg.type.ctype()} {name}")
        self.stmts(self.ir.body)
        prelude = [
            "    " + line for info in self.isa_infos for line in info.prelude
        ]
        body = "\n".join(prelude + self.lines)
        header = f"void {self.ir.name}({', '.join(params)}) {{"
        # loop counters and size parameters are int_fast32_t
        includes = ["#include <stdint.h>"]
        includes += [i.header for i in self.isa_infos if i.header]
        preamble = "\n".join(dict.fromkeys(includes + self.globals))
        text = f"{header}\n{body}\n}}\n"
        if preamble:
            text = preamble + "\n\n" + text
        return text

    def _is_written(self, sym: Sym) -> bool:
        from ..effects import written_buffers_precise

        return sym in written_buffers_precise(self.ir.body)


def proc_to_c(ir: Proc) -> str:
    """Emit the C source of one procedure."""
    return _CGen(ir).generate()
