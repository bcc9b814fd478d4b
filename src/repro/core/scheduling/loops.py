"""Loop scheduling primitives: divide, reorder, unroll, fission.

These are the transforms the paper's generator applies between Figures 6 and
11.  Every primitive validates its preconditions and raises
:class:`~repro.core.prelude.SchedulingError` on unsafe requests; semantic
preservation of the whole pipeline is additionally enforced empirically by
the test suite, which runs every intermediate kernel through the reference
interpreter.
"""

from __future__ import annotations

from typing import List

from ..affine import try_constant
from ..effects import fission_safe, reorder_safe
from ..loopir import Alloc, Assign, BinOp, Const, For, Proc, Read, Reduce, Stmt
from ..patterns import GapCursor, find_loop, get_stmt, replace_at
from ..prelude import SchedulingError, Sym
from ..proc import Procedure
from ..traversal import alpha_rename, free_symbols, stmt_uses_sym, subst_stmts
from ..typesys import INDEX
from .subst import fold_constants

# ---------------------------------------------------------------------------
# divide_loop
# ---------------------------------------------------------------------------


def divide_loop(
    p: Procedure,
    loop: str,
    quotient: int,
    new_names: List[str],
    perfect: bool = False,
) -> Procedure:
    """Split ``for i in seq(0, N)`` into outer/inner loops of step ``quotient``.

    ``new_names`` supplies the display names ``[outer, inner]``; the iterator
    is rewritten as ``quotient * outer + inner``.

    With ``perfect=True`` the trip count must be divisible by ``quotient``
    (statically, or via an ``assert N % quotient == 0`` precondition on the
    procedure); no tail is generated.  Otherwise a remainder loop covering
    the last ``N mod quotient`` iterations is appended.
    """
    if quotient <= 0:
        raise SchedulingError(f"quotient must be positive, got {quotient}")
    if len(new_names) != 2:
        raise SchedulingError("divide_loop needs exactly two new names")
    cursor = find_loop(p.ir, loop)
    target = cursor.stmt()
    assert isinstance(target, For)
    if try_constant(target.lo) != 0:
        raise SchedulingError("divide_loop requires a loop starting at 0")

    hi_const = try_constant(target.hi)
    outer = Sym(new_names[0])
    inner = Sym(new_names[1])
    src = target.srcinfo

    def subst_iter(body, expr):
        return subst_stmts(body, {target.iter: expr})

    recombined = BinOp(
        "+",
        BinOp("*", Const(quotient, INDEX, src), Read(outer, (), INDEX, src), INDEX, src),
        Read(inner, (), INDEX, src),
        INDEX,
        src,
    )

    if perfect:
        if hi_const is not None:
            if hi_const % quotient != 0:
                raise SchedulingError(
                    f"loop bound {hi_const} is not divisible by {quotient}"
                )
            outer_hi: object = Const(hi_const // quotient, INDEX, src)
        else:
            if not _divisibility_asserted(p.ir, target.hi, quotient):
                raise SchedulingError(
                    "perfect division of a symbolic bound needs an "
                    f"`assert bound % {quotient} == 0` precondition"
                )
            outer_hi = BinOp("/", target.hi, Const(quotient, INDEX, src), INDEX, src)
        main = For(
            outer,
            Const(0, INDEX, src),
            outer_hi,
            (
                For(
                    inner,
                    Const(0, INDEX, src),
                    Const(quotient, INDEX, src),
                    subst_iter(target.body, recombined),
                    src,
                ),
            ),
            src,
        )
        return Procedure(fold_constants(replace_at(p.ir, cursor.path, [main])))

    # cut tail: main loop over floor(N / q) blocks, then a remainder loop
    if hi_const is None:
        raise SchedulingError(
            "divide_loop with a tail requires a static bound; use perfect=True"
            " with a divisibility assertion for symbolic bounds"
        )
    n_main = hi_const // quotient
    n_tail = hi_const - n_main * quotient
    stmts: List[Stmt] = []
    if n_main:
        stmts.append(
            For(
                outer,
                Const(0, INDEX, src),
                Const(n_main, INDEX, src),
                (
                    For(
                        inner,
                        Const(0, INDEX, src),
                        Const(quotient, INDEX, src),
                        subst_iter(target.body, recombined),
                        src,
                    ),
                ),
                src,
            )
        )
    if n_tail:
        tail_iter = Sym(new_names[1])
        offset = BinOp(
            "+",
            Const(n_main * quotient, INDEX, src),
            Read(tail_iter, (), INDEX, src),
            INDEX,
            src,
        )
        stmts.append(
            For(
                tail_iter,
                Const(0, INDEX, src),
                Const(n_tail, INDEX, src),
                alpha_rename(subst_iter(target.body, offset)),
                src,
            )
        )
    return Procedure(fold_constants(replace_at(p.ir, cursor.path, stmts)))


def _divisibility_asserted(ir: Proc, bound, quotient: int) -> bool:
    """True when a precondition guarantees ``bound % quotient == 0``."""
    from ..affine import exprs_equal

    for pred in ir.preds:
        if (
            isinstance(pred, BinOp)
            and pred.op == "=="
            and try_constant(pred.rhs) == 0
            and isinstance(pred.lhs, BinOp)
            and pred.lhs.op == "%"
            and try_constant(pred.lhs.rhs) == quotient
            and exprs_equal(pred.lhs.lhs, bound)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# reorder_loops
# ---------------------------------------------------------------------------


def reorder_loops(p: Procedure, loops: str) -> Procedure:
    """Swap two perfectly nested loops, named as ``'outer inner'``.

    The outer loop's body must consist of exactly the inner loop, and the
    swap must pass the effect-based safety check (reductions commute; plain
    writes must address buffers with a consistent affine signature).
    """
    from ..patterns import find_all_stmts, parse_pattern

    names = loops.split()
    if len(names) != 2:
        raise SchedulingError(f"expected 'outer inner', got {loops!r}")
    pattern = parse_pattern(f"for {names[0]} in _: _")
    candidates = find_all_stmts(p.ir, pattern)
    if not candidates:
        raise SchedulingError(f"no loop named {names[0]!r} in {p.name()}")
    failures = []
    for path in candidates:
        outer = get_stmt(p.ir, path)
        assert isinstance(outer, For)
        if len(outer.body) != 1 or not isinstance(outer.body[0], For):
            failures.append(f"{names[0]!r} is not perfectly nested")
            continue
        inner = outer.body[0]
        if inner.iter.name != names[1]:
            failures.append(
                f"inner loop of {names[0]!r} is {inner.iter.name!r}"
            )
            continue
        if stmt_uses_sym(
            For(inner.iter, inner.lo, inner.hi, (), inner.srcinfo), outer.iter
        ):
            failures.append("inner loop bounds depend on the outer iterator")
            continue
        if not reorder_safe(outer.iter, inner.iter, inner.body):
            failures.append(
                f"reordering {names[0]}/{names[1]} here may change behaviour"
            )
            continue
        swapped = For(
            inner.iter,
            inner.lo,
            inner.hi,
            (For(outer.iter, outer.lo, outer.hi, inner.body, outer.srcinfo),),
            inner.srcinfo,
        )
        return Procedure(replace_at(p.ir, path, [swapped]))
    raise SchedulingError(
        f"no candidate loop nest {loops!r} can be reordered:\n  "
        + "\n  ".join(failures)
    )


# ---------------------------------------------------------------------------
# unroll_loop
# ---------------------------------------------------------------------------


def unroll_loop(p: Procedure, loop: str) -> Procedure:
    """Fully unroll a loop with static bounds, duplicating its body."""
    cursor = find_loop(p.ir, loop)
    target = cursor.stmt()
    assert isinstance(target, For)
    lo = try_constant(target.lo)
    hi = try_constant(target.hi)
    if lo is None or hi is None:
        raise SchedulingError(f"cannot unroll loop {loop!r} with symbolic bounds")
    stmts: List[Stmt] = []
    for i in range(lo, hi):
        iteration = subst_stmts(
            target.body, {target.iter: Const(i, INDEX, target.srcinfo)}
        )
        stmts.extend(alpha_rename(iteration))
    return Procedure(fold_constants(replace_at(p.ir, cursor.path, stmts)))


# ---------------------------------------------------------------------------
# fission
# ---------------------------------------------------------------------------


def fission(p: Procedure, gap: GapCursor, n_lifts: int = 1) -> Procedure:
    """Split enclosing loops at ``gap``, always duplicating loop structure."""
    return Procedure(
        fold_constants(_fission_ir(p.ir, gap, n_lifts, smart=False))
    )


def autofission(p: Procedure, gap: GapCursor, n_lifts: int = 1) -> Procedure:
    """Split enclosing loops at ``gap``, hoisting loop-independent parts.

    Like :func:`fission`, but when one side of the split does not mention a
    loop's iterator, that side is emitted *once* (outside the loop) instead
    of wrapped in a duplicate loop — provided one of two soundness rules
    applies:

    * **trailing epilogue** — the hoisted side only assigns buffers the other
      side never reads (dead intermediate stores: only the final iteration's
      effect is observable);
    * **idempotent prologue** — the hoisted side is a pure copy ``D <- S``
      and the loop body's only writes to ``S`` are copy-backs from ``D``,
      making every re-load after the first a no-op.

    These two rules capture the classic "hoist the C-tile load/store out of
    the k-loop" pattern of Figure 8.  When neither applies the loop is
    duplicated as in plain fission (subject to the fission safety check).
    """
    return Procedure(
        fold_constants(_fission_ir(p.ir, gap, n_lifts, smart=True))
    )


def _fission_ir(ir: Proc, gap: GapCursor, n_lifts: int, smart: bool) -> Proc:
    anchor_path = gap.path
    loop_path = anchor_path[:-1]
    depth = len(loop_path)
    if n_lifts > depth:
        raise SchedulingError(
            f"cannot lift fission {n_lifts} levels; only {depth} enclosing loops"
        )

    # Collect the chain of enclosing loops, outermost first.
    chain: List[For] = []
    block = ir.body
    for idx in loop_path:
        stmt = block[idx]
        assert isinstance(stmt, For)
        chain.append(stmt)
        block = stmt.body

    split = gap.split_index()
    pre: List[Stmt] = list(block[:split])
    post: List[Stmt] = list(block[split:])

    for level in range(n_lifts):
        loop = chain[depth - 1 - level]
        var = loop.iter
        _check_allocs_cross(pre, post)
        pre_hoist = (
            smart
            and bool(pre)
            and not any(stmt_uses_sym(s, var) for s in pre)
            and _can_hoist(pre, post, leading=True)
        )
        post_hoist = (
            smart
            and bool(post)
            and not any(stmt_uses_sym(s, var) for s in post)
            and _can_hoist(post, pre, leading=False)
        )
        if pre and post and not pre_hoist and not post_hoist:
            if not fission_safe(pre, post, [var]):
                raise SchedulingError(
                    f"fission through loop {var.name!r} may change behaviour"
                )
        pre_result = _wrap_part(pre, loop, leading=True, hoist=pre_hoist)
        post_result = _wrap_part(post, loop, leading=False, hoist=post_hoist)
        parent_idx = loop_path[depth - 1 - level]
        if level == n_lifts - 1:
            final = pre_result + post_result
            return replace_at(
                ir, loop_path[: depth - 1 - level] + (parent_idx,), final
            )
        parent = chain[depth - 2 - level]
        siblings = list(parent.body)
        siblings[parent_idx : parent_idx + 1] = pre_result + post_result
        pre = siblings[: parent_idx + len(pre_result)]
        post = siblings[parent_idx + len(pre_result) :]
    # n_lifts == 0: nothing to do
    return ir


def _check_allocs_cross(pre: List[Stmt], post: List[Stmt]):
    pre_allocs = {s.name for s in pre if isinstance(s, Alloc)}
    if pre_allocs & free_symbols(post):
        raise SchedulingError(
            "an allocation would be separated from its uses; call "
            "lift_alloc before fissioning"
        )


def _wrap_part(
    part: List[Stmt], loop: For, leading: bool, hoist: bool
) -> List[Stmt]:
    """Emit one side of a fissioned ``loop``: hoisted bare, or re-wrapped.

    The leading side keeps the original iterator symbol; the trailing side
    gets a fresh one (plus alpha renaming of its internal binders), since
    both copies of the loop now coexist as siblings.
    """
    if not part:
        return []
    if hoist:
        return list(part)
    if leading:
        return [For(loop.iter, loop.lo, loop.hi, tuple(part), loop.srcinfo)]
    new_iter = loop.iter.copy()
    body = alpha_rename(part, {loop.iter: new_iter})
    return [For(new_iter, loop.lo, loop.hi, body, loop.srcinfo)]


def _can_hoist(part: List[Stmt], other: List[Stmt], leading: bool) -> bool:
    """Apply the epilogue/prologue hoisting rules (see :func:`autofission`)."""
    from ..effects import read_buffers, stmt_effects, written_buffers

    part_eff = stmt_effects(part)
    part_writes = {a.buf for a in part_eff if a.kind in ("write", "reduce")}
    if any(a.kind == "reduce" for a in part_eff):
        return False
    other_reads = read_buffers(other)
    other_writes = written_buffers(other)
    if not leading:
        # trailing epilogue: assignments whose targets the loop body never
        # reads; only the last iteration's stores are observable.
        return not (part_writes & other_reads)
    # leading prologue: a pure copy D <- S whose sources are only ever
    # written by the other side as copy-backs from D.
    sources = {a.buf for a in part_eff if a.kind == "read"}
    if not all(isinstance(s, (Assign, For)) for s in part):
        return False
    touched_sources = sources & other_writes
    if not touched_sources:
        return True
    for stmt in _flat_assigns(other):
        if stmt.name in touched_sources:
            rhs_reads = {buf for buf, _ in _rhs_reads(stmt)}
            if not rhs_reads <= part_writes:
                return False
    return True


def _flat_assigns(stmts):
    for s in stmts:
        if isinstance(s, For):
            yield from _flat_assigns(s.body)
        elif isinstance(s, (Assign, Reduce)):
            yield s


def _rhs_reads(stmt):
    from ..traversal import collect_reads

    # keep only buffer reads; index expressions also mention loop iterators
    return [(buf, idx) for buf, idx in collect_reads(stmt.rhs) if idx]
