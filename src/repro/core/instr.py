"""The ``@instr`` decorator: hardware instructions as semantic procedures.

An instruction is an ordinary DSL procedure whose body *defines its
semantics* (what Figure 3 of the paper calls the "security definition"),
plus backend metadata:

* a C format string with ``{arg}`` / ``{arg_data}`` holes, spliced verbatim
  by the C code generator;
* performance attributes (result latency, functional-unit class) consumed
  by the pipeline simulator.

``replace`` only substitutes an instruction for a loop nest after *unifying*
the instruction's body against that nest — so a user can never swap in an
instruction that computes something different.
"""

from __future__ import annotations

from .loopir import InstrInfo, update
from .parser import parse_function
from .proc import Procedure


def instr(c_instr: str, latency: int = 1, pipe: str = "alu"):
    """Decorator factory attaching instruction metadata to a DSL procedure.

    Example::

        @instr("vst1q_f32(&{dst_data}, {src_data});", pipe="store")
        def neon_vst_4xf32(dst: [f32][4] @ DRAM, src: [f32][4] @ Neon):
            assert stride(dst, 0) == 1
            assert stride(src, 0) == 1
            for i in seq(0, 4):
                dst[i] = src[i]
    """
    info = InstrInfo(c_instr=c_instr, latency=latency, pipe=pipe)

    def wrap(fn) -> Procedure:
        ir = parse_function(fn)
        return Procedure(update(ir, instr=info))

    return wrap
