"""The public :class:`Procedure` handle and the ``@proc`` decorator.

A ``Procedure`` wraps an immutable LoopIR :class:`~repro.core.loopir.Proc`.
Scheduling primitives (in :mod:`repro.core.scheduling`) take and return
``Procedure`` objects; nothing ever mutates in place, so intermediate stages
of a schedule (the paper's v1..v6 kernels) remain usable side by side.
"""

from __future__ import annotations

from typing import Dict

from . import loopir
from .affine import try_constant_bool
from .loopir import Const, FnArg, Proc, update
from .parser import parse_function
from .patterns import StmtCursor, find_stmt
from .pprint import proc_to_str
from .prelude import SchedulingError
from .traversal import subst_expr, subst_stmts
from .typesys import INDEX, SIZE


class Procedure:
    """A schedulable procedure.

    The interesting API surface:

    * ``str(p)`` — Exo-style pretty printing (what the paper's figures show).
    * ``p.find(pattern)`` — a :class:`StmtCursor`, with ``.before()`` /
      ``.after()`` gap cursors for fission points.
    * ``p.partial_eval(*sizes, **named_sizes)`` — specialize size arguments
      to constants (Figure 6 of the paper).
    * ``p.c_code()`` / ``p.compile_c()`` — plain-C output (via
      :mod:`repro.core.codegen.cgen`).
    * ``p.interpret(...)`` — run the reference semantics on numpy buffers.
    """

    def __init__(self, ir: Proc):
        if not isinstance(ir, Proc):
            raise TypeError(f"expected LoopIR Proc, got {type(ir).__name__}")
        self._loopir = ir

    # -- introspection -------------------------------------------------------

    @property
    def ir(self) -> Proc:
        return self._loopir

    def name(self) -> str:
        return self._loopir.name

    def is_instr(self) -> bool:
        return self._loopir.instr is not None

    def arg_names(self) -> list:
        return [a.name.name for a in self._loopir.args]

    def __str__(self) -> str:
        return proc_to_str(self._loopir)

    def __repr__(self) -> str:
        return f"<Procedure {self._loopir.name}>"

    # -- cursors --------------------------------------------------------------

    def find(self, pattern: str) -> StmtCursor:
        return find_stmt(self._loopir, pattern)

    # -- scheduling entry points kept as methods (Exo parity) ------------------

    def partial_eval(self, *vals, **named) -> "Procedure":
        """Substitute size/index arguments by integer constants.

        Positional values bind to the leading ``size``/``index`` arguments in
        order; keyword values bind by name.  Bound arguments disappear from
        the signature and their value is folded through the body, predicates,
        and argument types.
        """
        ir = self._loopir
        binding: Dict[object, int] = {}
        control = [a for a in ir.args if a.type in (SIZE, INDEX)]
        if len(vals) > len(control):
            raise SchedulingError(
                f"{ir.name} has only {len(control)} size/index arguments"
            )
        for arg, val in zip(control, vals):
            binding[arg.name] = int(val)
        for name, val in named.items():
            arg = ir.arg_named(name)
            if arg.type not in (SIZE, INDEX):
                raise SchedulingError(f"{name} is not a size/index argument")
            binding[arg.name] = int(val)
        for sym, val in binding.items():
            if val <= 0:
                # sizes must stay positive; index arguments may be any int
                arg = next(a for a in ir.args if a.name == sym)
                if arg.type is SIZE:
                    raise SchedulingError(f"size {sym} must be positive, got {val}")

        env = {
            sym: Const(val, INDEX, ir.srcinfo) for sym, val in binding.items()
        }
        new_args = []
        for a in ir.args:
            if a.name in binding:
                continue
            typ = a.type
            if typ.is_tensor():
                shape = tuple(subst_expr(d, env) for d in typ.shape)
                typ = typ.with_shape(shape)
            new_args.append(FnArg(a.name, typ, a.mem, a.srcinfo))
        new_preds = []
        for pred in ir.preds:
            folded = subst_expr(pred, env)
            value = try_constant_bool(folded)
            if value is False:
                raise SchedulingError(
                    f"partial_eval makes predicate false in {ir.name}"
                )
            if value is None:
                new_preds.append(folded)
        new_body = subst_stmts(ir.body, env)
        new_ir = update(
            ir,
            args=tuple(new_args),
            preds=tuple(new_preds),
            body=new_body,
        )
        from .scheduling.subst import fold_constants  # local: avoid cycle

        return Procedure(fold_constants(new_ir))

    # -- execution and code generation ------------------------------------------

    def interpret(self, *args, **kwargs):
        from .interp import run_proc

        return run_proc(self._loopir, args, kwargs)

    def c_code(self) -> str:
        from .codegen.cgen import proc_to_c

        return proc_to_c(self._loopir)

    def asm_trace(self):
        from .codegen.asm import proc_to_asm

        return proc_to_asm(self._loopir)


def make_procedure(ir: Proc) -> Procedure:
    return Procedure(ir)


def proc(fn) -> Procedure:
    """Decorator: parse a Python-embedded DSL function into a Procedure."""
    return Procedure(parse_function(fn))
