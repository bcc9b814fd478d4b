"""Shared test utilities.

The central tool is :func:`assert_equivalent`: run two procedures with the
same signature on identical random inputs through the reference interpreter
and compare every output buffer.  Every scheduling step in the generator
tests is validated this way — the empirical counterpart of Exo's formal
equivalence guarantee.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core import Procedure
from repro.core.typesys import TensorType


def random_args(
    proc: Procedure,
    sizes: Dict[str, int],
    seed: int = 0,
) -> Dict[str, object]:
    """Build a full argument dict for ``proc``: ints for size/index args,
    random arrays (matching declared shapes) for tensors."""
    from repro.core.interp import _eval_expr, _Frame

    rng = np.random.default_rng(seed)
    frame = _Frame()
    args: Dict[str, object] = {}
    for arg in proc.ir.args:
        name = arg.name.name
        if arg.type.is_indexable():
            if name not in sizes:
                raise KeyError(f"test must supply size {name!r}")
            args[name] = sizes[name]
            frame.set(arg.name, sizes[name])
    for arg in proc.ir.args:
        name = arg.name.name
        if isinstance(arg.type, TensorType):
            shape = tuple(
                int(_eval_expr(dim, frame)) for dim in arg.type.shape
            )
            data = rng.standard_normal(shape).astype(arg.type.base.np_dtype)
            args[name] = data
    return args


def run_with(proc: Procedure, args: Dict[str, object]) -> Dict[str, np.ndarray]:
    """Run ``proc`` on copies of ``args``; return the (mutated) arrays."""
    copied = {
        k: (v.copy() if isinstance(v, np.ndarray) else v)
        for k, v in args.items()
    }
    proc.interpret(**copied)
    return {
        k: v for k, v in copied.items() if isinstance(v, np.ndarray)
    }


def assert_equivalent(
    p1: Procedure,
    p2: Procedure,
    sizes: Dict[str, int],
    seed: int = 0,
    rtol: float = 1e-5,
    atol: float = 1e-5,
) -> None:
    """Both procedures must agree on random inputs (all output buffers)."""
    args = random_args(p1, sizes, seed=seed)
    out1 = run_with(p1, args)
    out2 = run_with(p2, args)
    assert out1.keys() == out2.keys()
    for name in out1:
        np.testing.assert_allclose(
            out1[name].astype(np.float64),
            out2[name].astype(np.float64),
            rtol=rtol,
            atol=atol,
            err_msg=f"buffer {name} diverged between "
            f"{p1.name()} and {p2.name()}",
        )


def interpret_parts(parts, kc, ac, bc, c) -> None:
    """Run each ``(row_offset, kernel)`` part of a tile on its column
    slice of the packed ``Ac`` and the transposed ``C``."""
    for off, kernel in parts:
        hi = off + kernel.mr
        kernel.proc.interpret(kc, ac[:, off:hi], bc, c[:, off:hi])
