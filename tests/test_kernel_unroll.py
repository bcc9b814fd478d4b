"""How a finished schedule unrolls into its instruction stream.

Three readers walk the instruction calls of a scheduled kernel: the
Figure-12 listing (``Procedure.asm_trace``), the timing model's trace
(:func:`repro.sim.pipeline.trace_from_kernel`) and the verifier's
census (:func:`repro.analysis.verify_kernel`).  These tests pin what
each of them makes of every schedule shape they meet: the listings and
traces of every family tile, the loops the listing refuses, the dynamic
prologue loop of the scaled kernel, and the findings the verifier
records for statements it cannot unroll.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.analysis import verify_kernel
from repro.core.codegen.asm import UNROLL_BOUND
from repro.core.loopir import (
    Assign,
    BinOp,
    Call,
    Const,
    For,
    Point,
    Read,
    WindowExpr,
    update,
)
from repro.core.prelude import CodegenError
from repro.core.typesys import F32, INDEX
from repro.isa.targets import ISA_TARGETS, target
from repro.sim.pipeline import trace_from_kernel
from repro.ukernel.extended import generate_scaled_microkernel

# ---------------------------------------------------------------------------
# every family tile: the listing text and the trace it prices

#: sha256 over every family tile's listing (or its CodegenError)
LISTING_DIGEST = (
    "e76e06526c52b85aea3dd798c78dba92b7288ff2a43ac560f7eac9570aa355f6"
)
#: sha256 over every family tile's trace, value keys renumbered by
#: first appearance (symbol ids differ between processes)
TRACE_DIGEST = (
    "46197bc0ca741fc775c832f2bd16aa2caf09207cf9359ea2b1324847431bb28b"
)


def _family_kernels():
    for isa in sorted(ISA_TARGETS):
        t = target(isa)
        for mr, nr in t.family:
            for _, kernel in t.tile_parts(mr, nr):
                yield isa, kernel


def _listing_line(isa, kernel) -> str:
    try:
        asm = kernel.proc.asm_trace()
    except CodegenError as exc:
        return f"{isa} {kernel.name} error {exc}"
    return f"{isa} {kernel.name} regs {asm.reg_count}\n{asm.listing}"


def _trace_line(isa, kernel) -> str:
    trace = trace_from_kernel(kernel)
    ids: dict = {}

    def value(key):
        return None if key is None else ids.setdefault(key, len(ids))

    ops = [
        (op.pipe, op.latency, value(op.dest),
         tuple(value(s) for s in op.srcs), op.accumulate, op.name)
        for op in trace.ops
    ]
    return (
        f"{isa} {kernel.name} {ops} {trace.flops_per_iter} "
        f"{trace.prologue_vector_ops} {trace.epilogue_vector_ops}"
    )


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_family_listings_are_pinned():
    lines = [_listing_line(isa, k) for isa, k in _family_kernels()]
    assert _digest(lines) == LISTING_DIGEST


def test_family_traces_are_pinned():
    lines = [_trace_line(isa, k) for isa, k in _family_kernels()]
    assert _digest(lines) == TRACE_DIGEST


# ---------------------------------------------------------------------------
# the loops and calls the listing and the trace refuse


def _neon_kernel():
    return target("neon").get(8, 12)


def _with_body(kernel, body):
    # replace() starts without the cached trace of the old body
    ir = update(kernel.proc.ir, body=tuple(body))
    return dataclasses.replace(kernel, proc=type(kernel.proc)(ir))


def _index_read(sym):
    return Read(sym, (), INDEX)


def _k_loop(kernel):
    return kernel.proc.ir.body[_k_index(kernel.proc.ir)]


def _k_index(ir) -> int:
    return next(
        i for i, s in enumerate(ir.body)
        if isinstance(s, For) and s.iter.name == "k"
    )


def _with_k_body(kernel, edit):
    """The kernel with ``edit`` applied to its k-loop body (a list)."""
    body = list(kernel.proc.ir.body)
    i = _k_index(kernel.proc.ir)
    k_body = list(body[i].body)
    edit(k_body, body[i])
    body[i] = update(body[i], body=tuple(k_body))
    return _with_body(kernel, body)


def _with_inner_hi(kernel, hi_of):
    """The kernel with the k-loop's FMA nest bounded by ``hi_of(kloop)``."""

    def edit(k_body, kloop):
        j = next(i for i, s in enumerate(k_body) if isinstance(s, For))
        k_body[j] = update(k_body[j], hi=hi_of(kloop))

    return _with_k_body(kernel, edit)


def _refused(kernel, match):
    with pytest.raises(CodegenError, match=match):
        kernel.proc.asm_trace()
    with pytest.raises(CodegenError, match=match):
        trace_from_kernel(kernel)


def test_inner_loop_longer_than_the_unroll_bound_is_refused():
    kernel = _with_inner_hi(
        _neon_kernel(), lambda _: Const(UNROLL_BOUND + 1, INDEX)
    )
    _refused(kernel, "static inner loops")


def test_inner_loop_at_the_unroll_bound_unrolls():
    kernel = _with_inner_hi(
        _neon_kernel(), lambda _: Const(UNROLL_BOUND, INDEX)
    )
    # 64 x 4 x 2 FMAs instead of 3 x 4 x 2 (too many registers to list)
    assert trace_from_kernel(kernel).counts()["fma"] == UNROLL_BOUND * 8
    with pytest.raises(CodegenError, match="register allocation"):
        kernel.proc.asm_trace()


def test_non_static_inner_loop_is_refused_and_drifts():
    kernel = _with_inner_hi(_neon_kernel(), lambda kloop: kloop.hi)
    _refused(kernel, "static inner loops")
    report = verify_kernel(kernel)
    assert [str(f) for f in report.findings] == [
        "E_OOB_ACCESS C_reg dim 0: window point not provably inside the "
        "buffer",
        "E_OOB_ACCESS B_reg dim 0: window point not provably inside the "
        "buffer",
        "E_COUNT_DRIFT non-static loop over jt inside the k phase",
        "E_COUNT_DRIFT timing model cannot trace the kernel: assembly "
        "generation requires static inner loops",
        "E_COUNT_DRIFT k-loop census finds 0 FMA ops x 4 lanes = 0 MACs "
        "per iteration; an 8x12 tile needs 96",
    ]


def _first_load_call(k_body):
    return next(i for i, s in enumerate(k_body) if isinstance(s, Call))


def test_non_instruction_call_is_refused_and_drifts():
    def strip_instr(k_body, _):
        j = _first_load_call(k_body)
        call = k_body[j]
        k_body[j] = update(call, proc=update(call.proc, instr=None))

    kernel = _with_k_body(_neon_kernel(), strip_instr)
    _refused(kernel, "call to non-instruction neon_vld_4xf32")
    report = verify_kernel(kernel)
    assert report.codes == ("E_COUNT_DRIFT", "E_UNDEF_READ")
    messages = [f.message for f in report.findings]
    assert messages[0] == (
        "call to non-instruction neon_vld_4xf32 survives in the schedule"
    )
    assert (
        "timing model cannot trace the kernel: call to non-instruction "
        "neon_vld_4xf32" in messages
    )


def _with_k_point(kernel, buffer, square):
    """The first k-loop load with ``buffer``'s first point index
    replaced by ``square(point)``."""

    def edit(k_body, _):
        j = _first_load_call(k_body)
        call = k_body[j]
        args = list(call.args)
        for a, w in enumerate(args):
            if isinstance(w, WindowExpr) and w.name.name == buffer:
                idx = list(w.idx)
                idx[0] = Point(square(idx[0].pt))
                args[a] = update(w, idx=tuple(idx))
        k_body[j] = update(call, args=tuple(args))

    return _with_k_body(kernel, edit)


def _square(e):
    return BinOp("*", e, e, INDEX)


def test_unkeyable_source_window_is_skipped():
    # Ac[k * k, 0:4]: no register key, but the listing and the trace
    # key only the register operand of a load
    kernel = _with_k_point(_neon_kernel(), "Ac", _square)
    assert kernel.proc.asm_trace().count("fmla") == 24
    assert trace_from_kernel(kernel).counts()["load"] == 5
    assert verify_kernel(kernel).codes == ("E_OOB_ACCESS",)


def test_unkeyable_register_window_is_refused_and_skipped():
    # A_reg[k * k, 0:4]: the load's destination has no register key
    k = _index_read(_k_loop(_neon_kernel()).iter)
    kernel = _with_k_point(_neon_kernel(), "A_reg", lambda _: _square(k))
    _refused(kernel, "non-affine index")
    report = verify_kernel(kernel)
    # the load's write is skipped, so the FMAs read A_reg[0] unwritten
    assert report.codes == ("E_COUNT_DRIFT", "E_OOB_ACCESS", "E_UNDEF_READ")


def test_affine_after_unrolling_keys_as_unrolled():
    # jt_2 * jtt_2 is not affine, but every unrolled instance is a
    # constant: the store still names the accumulator it stores
    kernel = _neon_kernel()
    body = list(kernel.proc.ir.body)
    post = body[-1]  # for jt_2: for jtt_2: for it_2: store
    jt, jtt = post.iter, post.body[0].iter
    product = BinOp("*", _index_read(jt), _index_read(jtt), INDEX)
    inner = post.body[0].body[0]
    store = inner.body[0]
    src = store.args[1]
    idx = list(src.idx)
    idx[0] = Point(product)
    store = update(store, args=(store.args[0], update(src, idx=tuple(idx))))
    inner = update(inner, body=(store,))
    body[-1] = update(
        post, body=(update(post.body[0], body=(inner,)),)
    )
    report = verify_kernel(_with_body(kernel, body))
    assert report.codes == ("E_ACC_UNSTORED", "E_OOB_ACCESS")
    unstored = [f for f in report.findings if f.code == "E_ACC_UNSTORED"]
    # the products 0..6 cover C_reg rows 0, 1, 2, 3, 4, 6: 12 - 6 = 6
    # rows x 2 halves are never stored
    assert len(unstored) == 12


def test_unexpected_statement_drifts_once_per_unrolled_instance():
    kernel = _neon_kernel()
    body = list(kernel.proc.ir.body)
    first = next(i for i, s in enumerate(body) if isinstance(s, For))
    c = kernel.proc.ir.args[-1].name
    zero = Assign(c, (Const(0, INDEX), Const(0, INDEX)), Const(0.0, F32))
    body[first] = update(body[first], body=(zero, *body[first].body))
    report = verify_kernel(_with_body(kernel, body))
    assert report.codes == ("E_COUNT_DRIFT",)
    assert [f.message for f in report.findings] == [
        "unexpected Assign in the pre phase of a finished schedule"
    ] * 3


def test_top_level_statements_outside_calls_and_loops_are_ignored():
    kernel = _neon_kernel()
    c = kernel.proc.ir.args[-1].name
    zero = Assign(c, (Const(0, INDEX), Const(0, INDEX)), Const(0.0, F32))
    changed = _with_body(kernel, (zero, *kernel.proc.ir.body))
    assert verify_kernel(changed).ok
    trace = trace_from_kernel(changed)
    assert (trace.prologue_vector_ops, trace.epilogue_vector_ops) == (24, 24)


# ---------------------------------------------------------------------------
# the scaled kernel: a dynamic KC loop ahead of the k-loop


def test_scaled_kernel_counts_its_dynamic_prologue_loop_once():
    trace = trace_from_kernel(generate_scaled_microkernel(8, 12))
    # dup + 12 x 2 x (load, mul, store) + dup + one pass of the
    # Ba = Bc * alpha nest (3 x 3) + 24 C-tile loads
    assert trace.prologue_vector_ops == 1 + 72 + 1 + 9 + 24
    # 24 C-tile stores + 12 x 2 x (load, store)
    assert trace.epilogue_vector_ops == 24 + 48
    assert trace.counts() == {"load": 5, "fma": 24, "alu": 3}


def test_scaled_kernel_verifier_findings_are_pinned():
    """A known limitation: the verifier does not model the dynamic
    ``Ba`` nest, so the scaled kernel fails verification."""
    report = verify_kernel(generate_scaled_microkernel(8, 12))
    assert report.codes == ("E_COUNT_DRIFT", "E_REG_PRESSURE", "E_UNDEF_READ")
    messages = [f.message for f in report.findings]
    assert messages[0] == "non-static loop over bk inside the pre phase"
    undef = [m for m in messages if m.startswith("neon_vld_4xf32 reads Ba ")]
    assert len(undef) == 3
    assert messages[4:] == [
        "kernel names 34 vector registers; the target register file "
        "holds 32",
        "prologue census finds 98 ops but the timing model amortizes 107",
    ]


# ---------------------------------------------------------------------------
# one unroll per kernel


def test_verify_and_trace_share_one_unroll(monkeypatch):
    from repro.core.codegen import asm
    from repro.isa.neon import NEON_F32_LIB
    from repro.ukernel.generator import generate_microkernel

    unrolled = []
    unroll = asm.unroll_schedule

    def counted(ir):
        unrolled.append(ir)
        return unroll(ir)

    monkeypatch.setattr(asm, "unroll_schedule", counted)
    kernel = generate_microkernel(8, 12, NEON_F32_LIB)
    assert verify_kernel(kernel).ok
    trace_from_kernel(kernel)
    trace_from_kernel(kernel, extra_alu_per_iter=2)
    assert unrolled == [kernel.proc.ir]
    # the stream belongs to its proc: a replaced kernel unrolls anew
    trace_from_kernel(dataclasses.replace(kernel))
    assert len(unrolled) == 2
