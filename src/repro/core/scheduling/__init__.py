"""Scheduling primitives — the user-facing rewriting vocabulary.

Every function takes a :class:`~repro.core.proc.Procedure` (plus directions)
and returns a new one; procedures are never mutated.  The set mirrors the
operations used in the paper's step-by-step generation (Section III).
"""

from .buffers import (
    bind_expr,
    expand_dim,
    lift_alloc,
    set_memory,
    set_precision,
    stage_mem,
)
from .loops import autofission, divide_loop, fission, reorder_loops, unroll_loop
from .replace import replace
from .subst import rename, simplify

__all__ = [
    "autofission",
    "bind_expr",
    "divide_loop",
    "expand_dim",
    "fission",
    "lift_alloc",
    "rename",
    "reorder_loops",
    "replace",
    "set_memory",
    "set_precision",
    "simplify",
    "stage_mem",
    "unroll_loop",
]
