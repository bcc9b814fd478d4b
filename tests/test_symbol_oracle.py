"""The memoized free-symbol queries against the whole-block walker.

``repro.core.traversal`` answers ``free_symbols``, ``stmt_uses_sym`` and
``stmt_mentions`` from a ``(free, bound)`` pair memoized on each
statement node; ``tests/symbol_oracle.py`` keeps the walker that visits
every statement on every call.  On every step of every kernel-golden
case and on procs from the schedule fuzzer, both must agree on every
block and every statement.  The memo (and the fold's statement entries)
must die with the node that carries it.  And every scheduling primitive
handed a fold-closed procedure returns one, so the fold meets only the
statements a primitive built.
"""

from __future__ import annotations

import gc
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import symbol_oracle
from test_kernel_golden import CASES
from test_schedule_fuzz import TRANSFORMS, _specialized

from repro.core import scheduling, traversal
from repro.core.loopir import Alloc, Assign, Const, For, Proc, Read
from repro.core.prelude import ReproError, Sym
from repro.core.scheduling import subst
from repro.core.typesys import F32, INDEX
from repro.isa.neon import NEON_F32_LIB
from repro.isa.neon_fp16 import NEON_F16_LIB
from repro.isa.targets import target
from repro.ukernel import extended, generator


def _blocks(block):
    """``block`` and every loop body inside it, outermost first."""
    yield block
    for s in block:
        if isinstance(s, For):
            yield from _blocks(s.body)


def _check_ir(ir):
    stranger = Sym("stranger")
    for block in _blocks(ir.body):
        assert traversal.free_symbols(block) == symbol_oracle.free_symbols(
            block
        )
        for s in block:
            free, bound = symbol_oracle.block_symbols((s,))
            assert traversal.stmt_symbols(s) == (free, bound)
            for sym in free | bound | {stranger}:
                assert traversal.stmt_uses_sym(
                    s, sym
                ) == symbol_oracle.stmt_uses_sym(s, sym)
                assert traversal.stmt_mentions(s, sym) == (
                    sym in free or sym in bound
                )


@pytest.mark.parametrize("key", sorted(CASES))
def test_memoized_queries_match_oracle_on_kernel_steps(key):
    for _, kernel in CASES[key]():
        for step in kernel.steps.values():
            _check_ir(step.ir)
        _check_ir(kernel.proc.ir)


def _fuzzed(choices):
    p = _specialized()
    yield p
    for idx in choices:
        try:
            p = TRANSFORMS[idx][1](p)
        except ReproError:
            continue
        yield p


@given(st.lists(st.integers(0, len(TRANSFORMS) - 1), min_size=0, max_size=6))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_memoized_queries_match_oracle_on_fuzzed_schedules(choices):
    for p in _fuzzed(choices):
        _check_ir(p.ir)


def test_block_order_decides_what_is_free():
    """A use before its binder is free; a binder inside a loop still
    binds for the statements after the loop, as in the walker."""
    x, t, i, n = Sym("x"), Sym("t"), Sym("i"), Sym("n")
    use_x = Assign(x, (), Const(1.0, F32))
    use_t = Assign(t, (), Read(n, (), INDEX))
    loop = For(i, Read(i, (), INDEX), Const(4, INDEX), (Alloc(t, F32),))
    for block in (
        (use_x, Alloc(x, F32)),
        (Alloc(x, F32), use_x),
        (loop, use_t),
        (use_t, loop),
    ):
        assert traversal.free_symbols(block) == symbol_oracle.free_symbols(
            block
        )
        for s in block:
            assert traversal.stmt_symbols(s) == symbol_oracle.block_symbols(
                (s,)
            )
    assert traversal.free_symbols((use_x, Alloc(x, F32))) == {x}
    assert traversal.free_symbols((loop, use_t)) == {i, n}


def test_memo_lives_on_the_node_and_dies_with_it():
    x, y = Sym("x"), Sym("y")
    s = Assign(x, (), Read(y, (), F32))
    assert traversal.stmt_symbols(s) == ({x, y}, set())
    assert "_symbols" in vars(s)
    ref = weakref.ref(s)
    del s
    gc.collect()
    assert ref() is None


def test_fold_flag_lives_on_the_statement_and_dies_with_it():
    i = Sym("i")
    loop = For(i, Const(0, INDEX), Const(4, INDEX), (Alloc(Sym("t"), F32),))
    ir = subst.fold_constants(Proc("p", (), (), (loop,)))
    assert "_folded" in vars(ir.body[0])
    assert subst.fold_constants(ir) is ir
    ref = weakref.ref(ir.body[0])
    del ir, loop
    gc.collect()
    assert ref() is None


def _closure_kernels():
    rvv = target("rvv128")
    return (
        lambda: generator.generate_microkernel(8, 12, NEON_F32_LIB),
        lambda: generator.generate_microkernel(
            8, 6, NEON_F32_LIB, variant="broadcast"
        ),
        lambda: generator.generate_microkernel(1, 8, NEON_F32_LIB),
        lambda: generator.generate_microkernel(8, 16, NEON_F16_LIB),
        lambda: generator.generate_microkernel(3, 8, rvv.lib_factory(3)),
        lambda: extended.generate_nopack_microkernel(5, 12),
        lambda: extended.generate_scaled_microkernel(4, 4),
    )


@pytest.mark.parametrize("build", _closure_kernels())
def test_primitives_keep_procs_fold_closed(build, monkeypatch):
    """Given a fold-closed proc, each primitive returns one: folding its
    output hands back the very same object."""
    seen = []

    def checked(name, fn):
        def run(p, *args, **kwargs):
            closed = subst.fold_constants(p.ir) is p.ir
            out = fn(p, *args, **kwargs)
            if closed:
                seen.append(name)
                assert subst.fold_constants(out.ir) is out.ir, name
            return out

        return run

    for module in (generator, extended):
        for name in _primitives_of(module):
            monkeypatch.setattr(
                module, name, checked(name, getattr(module, name))
            )
    build()
    assert {"autofission", "expand_dim", "replace", "stage_mem"} <= set(
        seen
    )


def _primitives_of(module):
    """The scheduling primitives ``module`` imported by name."""
    return [
        name
        for name in scheduling.__all__
        if getattr(module, name, None) is getattr(scheduling, name)
    ]
