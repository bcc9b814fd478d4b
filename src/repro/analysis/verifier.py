"""Static verification of generated micro-kernels.

The verifier re-derives, from the scheduled LoopIR alone, the safety
properties the rest of the system silently assumes:

* **def-before-use** — every vector register (and any allocated
  buffer) is written before it is read, including the accumulator
  tile the k-loop reduces into;
* **bounds** — every load/store window and every scalar element
  access provably stays inside its buffer's declared footprint.  The
  proof is symbolic over the affine forms of
  :mod:`repro.core.affine`, so the ``KC``-symbolic k-loop and the
  reduced-AVL ``vsetvl`` tail parts of VLA plans are covered without
  picking concrete sizes;
* **accumulator liveness** — no FMA destination is clobbered by a
  non-accumulating instruction before the store that reads it, and
  every accumulator is in fact stored;
* **register pressure** — the distinct vector registers the kernel
  names fit the target's architectural register file
  (:mod:`repro.isa.targets` / :mod:`repro.isa.machine`);
* **instruction census** — a per-phase count of the kernel's
  instructions agrees with the trace the timing model
  (:mod:`repro.sim.pipeline`) prices, so codegen/cost-model drift
  becomes a named error instead of a silently mispriced kernel.  Both
  read one unroll of the kernel (``GeneratedKernel.unrolled``); the
  operand classification by effect, the loop bookkeeping, flops/iter,
  ``fma x lanes`` and the prologue and epilogue cross-checks stay the
  verifier's own.

Every violation is a :class:`Finding` with a stable error code (the
catalogue lives in ``docs/analysis.md``); :func:`verify_kernel`,
:func:`verify_plan` and :func:`verify_target` return :class:`Report`
objects the CLI and the tuner act on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.affine import LinExpr, linearize, try_constant
from repro.core.codegen.asm import Step
from repro.core.effects import classify_formals
from repro.core.loopir import (
    Alloc,
    Assign,
    BinOp,
    Call,
    Expr,
    For,
    Interval,
    Pass,
    Point,
    Proc,
    Read,
    Reduce,
    Stmt,
    USub,
    WindowExpr,
)
from repro.core.prelude import CodegenError, Sym
from repro.core.typesys import SizeType, TensorType

__all__ = [
    "Finding",
    "Report",
    "verify_kernel",
    "verify_plan",
    "verify_target",
    "ERROR_CODES",
]

#: the verifier's error catalogue (code -> one-line meaning)
ERROR_CODES: Dict[str, str] = {
    "E_UNDEF_READ": "a register/buffer is read before any write",
    "E_OOB_ACCESS": "an access is not provably inside its buffer",
    "E_PRED": "an instruction precondition is not provably satisfied",
    "E_ACC_CLOBBER": "an accumulator is overwritten before its store",
    "E_ACC_UNSTORED": "an accumulator is never stored back",
    "E_REG_PRESSURE": "the kernel exceeds the vector register file",
    "E_COUNT_DRIFT": "static census disagrees with the timing model",
    "E_PLAN_COVER": "a VLA plan's parts do not tile the logical MR",
}


@dataclass(frozen=True)
class Finding:
    """One verification failure: a stable code plus a human message."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} {self.message}"


@dataclass
class Report:
    """The outcome of verifying one kernel (or one VLA plan)."""

    name: str
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no finding was recorded."""
        return not self.findings

    @property
    def codes(self) -> Tuple[str, ...]:
        """The distinct error codes present, sorted."""
        return tuple(sorted({f.code for f in self.findings}))

    def add(self, code: str, message: str) -> None:
        """Record one finding."""
        self.findings.append(Finding(code, message))


# ---------------------------------------------------------------------------
# Symbolic bounds engine
# ---------------------------------------------------------------------------

#: iterator -> (inclusive lower bound, inclusive upper bound), affine
_IterBounds = Dict[Sym, Tuple[LinExpr, LinExpr]]


def _extent_lin(extent) -> Optional[LinExpr]:
    """Linear form of a tensor-shape entry (int or index expression)."""
    if isinstance(extent, int):
        return LinExpr({}, extent)
    if isinstance(extent, Expr):
        return linearize(extent)
    return None


def _prove_nonneg(
    lin: LinExpr, iters: _IterBounds, sizes: set
) -> bool:
    """Prove ``lin >= 0`` for every iteration and every size >= 1.

    Iterator symbols are eliminated by substituting the bound that
    minimizes the expression (the lower bound under a positive
    coefficient, the upper bound under a negative one); the residue
    may only mention size symbols, each at least 1 and unbounded
    above, so a nonnegative minimum requires nonnegative coefficients.
    """
    work = lin.copy()
    for _ in range(32):
        sym = next((s for s in work.terms if s in iters), None)
        if sym is None:
            break
        coeff = work.terms.pop(sym)
        lo, hi = iters[sym]
        bound = lo if coeff > 0 else hi
        work = work.plus(bound.scaled(coeff))
    else:
        return False  # elimination did not converge
    floor = work.offset
    for sym, coeff in work.terms.items():
        if sym not in sizes or coeff < 0:
            return False  # unknown symbol, or unbounded below
        floor += coeff  # size symbols are at least 1
    return floor >= 0


def _prove_le(
    a: LinExpr, b: LinExpr, iters: _IterBounds, sizes: set
) -> bool:
    """Prove ``a <= b`` under the same environment as `_prove_nonneg`."""
    return _prove_nonneg(b.plus(a, sign=-1), iters, sizes)


def _numeric_range(
    lin: LinExpr, iters: _IterBounds
) -> Optional[Tuple[int, int]]:
    """Concrete (min, max) of an affine form, when all bounds fold."""
    lo = hi = lin.offset
    for sym, coeff in lin.terms.items():
        if sym not in iters:
            return None
        blo, bhi = iters[sym]
        if blo.terms or bhi.terms:
            return None
        if coeff >= 0:
            lo += coeff * blo.offset
            hi += coeff * bhi.offset
        else:
            lo += coeff * bhi.offset
            hi += coeff * blo.offset
    return (lo, hi)


# ---------------------------------------------------------------------------
# Bounds / predicate pass (symbolic, no unrolling)
# ---------------------------------------------------------------------------


class _BoundsPass:
    """Walk a proc proving every access inside its declared footprint."""

    def __init__(self, ir: Proc, report: Report):
        self.report = report
        self.sizes = {
            a.name for a in ir.args if isinstance(a.type, SizeType)
        }
        self.shapes: Dict[Sym, List[Optional[LinExpr]]] = {}
        for a in ir.args:
            if isinstance(a.type, TensorType):
                self.shapes[a.name] = [
                    _extent_lin(s) for s in a.type.shape
                ]
        self.iters: _IterBounds = {}

    def run(self, body: Sequence[Stmt]) -> None:
        """Check a statement block under the current environment."""
        for s in body:
            if isinstance(s, Alloc):
                if isinstance(s.type, TensorType):
                    self.shapes[s.name] = [
                        _extent_lin(x) for x in s.type.shape
                    ]
            elif isinstance(s, For):
                lo = linearize(s.lo)
                hi = linearize(s.hi)
                if lo is None or hi is None:
                    self.report.add(
                        "E_OOB_ACCESS",
                        f"loop {s.iter} has non-affine bounds",
                    )
                    continue
                self.iters[s.iter] = (lo, hi.plus(LinExpr({}, 1), -1))
                self.run(s.body)
                del self.iters[s.iter]
            elif isinstance(s, (Assign, Reduce)):
                self.check_element(s.name, s.idx)
                self.check_expr(s.rhs)
            elif isinstance(s, Call):
                self.check_call(s)
            elif isinstance(s, Pass):
                pass

    # -- access checks ----------------------------------------------------

    def check_expr(self, e: Expr) -> None:
        """Bounds-check every element read inside an expression."""
        if isinstance(e, Read):
            if e.idx:
                self.check_element(e.name, e.idx)
        elif isinstance(e, BinOp):
            self.check_expr(e.lhs)
            self.check_expr(e.rhs)
        elif isinstance(e, USub):
            self.check_expr(e.arg)

    def check_element(self, buf: Sym, idx: Tuple[Expr, ...]) -> None:
        """Prove ``0 <= idx[d] < shape[d]`` for a scalar access."""
        shape = self.shapes.get(buf)
        if shape is None:
            return
        for d, e in enumerate(idx):
            lin = linearize(e)
            extent = shape[d] if d < len(shape) else None
            if lin is None or extent is None:
                self.report.add(
                    "E_OOB_ACCESS",
                    f"{buf}[{d}]: non-affine index or extent",
                )
                continue
            if not _prove_nonneg(lin, self.iters, self.sizes):
                self.report.add(
                    "E_OOB_ACCESS",
                    f"{buf} dim {d}: cannot prove index >= 0",
                )
            top = extent.plus(LinExpr({}, 1), -1)
            if not _prove_le(lin, top, self.iters, self.sizes):
                self.report.add(
                    "E_OOB_ACCESS",
                    f"{buf} dim {d}: cannot prove index < extent",
                )

    def check_window(
        self, w: WindowExpr, formal_shape: Optional[List[Optional[LinExpr]]]
    ) -> None:
        """Prove a call window in-bounds and matching the operand shape."""
        shape = self.shapes.get(w.name)
        interval_dims: List[Optional[LinExpr]] = []
        for d, item in enumerate(w.idx):
            extent = None
            if shape is not None and d < len(shape):
                extent = shape[d]
            if isinstance(item, Point):
                lin = linearize(item.pt)
                if lin is None or extent is None:
                    self.report.add(
                        "E_OOB_ACCESS",
                        f"{w.name} dim {d}: non-affine point or extent",
                    )
                    continue
                ok_lo = _prove_nonneg(lin, self.iters, self.sizes)
                ok_hi = _prove_le(
                    lin,
                    extent.plus(LinExpr({}, 1), -1),
                    self.iters,
                    self.sizes,
                )
                if not (ok_lo and ok_hi):
                    self.report.add(
                        "E_OOB_ACCESS",
                        f"{w.name} dim {d}: window point not provably "
                        "inside the buffer",
                    )
            elif isinstance(item, Interval):
                lo = linearize(item.lo)
                hi = linearize(item.hi)
                if lo is None or hi is None or extent is None:
                    self.report.add(
                        "E_OOB_ACCESS",
                        f"{w.name} dim {d}: non-affine interval or extent",
                    )
                    interval_dims.append(None)
                    continue
                if not _prove_nonneg(lo, self.iters, self.sizes):
                    self.report.add(
                        "E_OOB_ACCESS",
                        f"{w.name} dim {d}: window start not provably >= 0",
                    )
                if not _prove_le(hi, extent, self.iters, self.sizes):
                    self.report.add(
                        "E_OOB_ACCESS",
                        f"{w.name} dim {d}: window end not provably "
                        "<= extent",
                    )
                interval_dims.append(hi.plus(lo, sign=-1))
        if formal_shape is not None:
            if len(interval_dims) != len(formal_shape):
                self.report.add(
                    "E_OOB_ACCESS",
                    f"{w.name}: window rank {len(interval_dims)} != "
                    f"instruction operand rank {len(formal_shape)}",
                )
                return
            for d, (got, want) in enumerate(
                zip(interval_dims, formal_shape)
            ):
                if got is None or want is None:
                    continue
                diff = got.plus(want, sign=-1)
                if not (diff.is_constant() and diff.offset == 0):
                    self.report.add(
                        "E_OOB_ACCESS",
                        f"{w.name}: window extent {got!r} != instruction "
                        f"operand extent {want!r} in dim {d}",
                    )

    def check_call(self, call: Call) -> None:
        """Check a call's windows, element reads and preconditions."""
        formals = call.proc.args
        env: Dict[Sym, Expr] = {}
        for formal, actual in zip(formals, call.args):
            env[formal.name] = actual
            if isinstance(actual, WindowExpr):
                fshape = None
                if isinstance(formal.type, TensorType):
                    fshape = [
                        _extent_lin(s) for s in formal.type.shape
                    ]
                self.check_window(actual, fshape)
                for item in actual.idx:
                    if isinstance(item, Point):
                        self.check_expr(item.pt)
                    else:
                        self.check_expr(item.lo)
                        self.check_expr(item.hi)
            else:
                self.check_expr(actual)
        for pred in call.proc.preds:
            self.check_pred(call.proc.name, pred, env)

    def check_pred(
        self, callee: str, pred: Expr, env: Dict[Sym, Expr]
    ) -> None:
        """Prove an affine instruction precondition at the call site.

        Non-affine predicates (stride facts, window provenance) are
        outside the engine and skipped; decidable comparisons must be
        provably true for every iteration.
        """
        if isinstance(pred, BinOp) and pred.op == "and":
            self.check_pred(callee, pred.lhs, env)
            self.check_pred(callee, pred.rhs, env)
            return
        if not (
            isinstance(pred, BinOp)
            and pred.op in ("<", ">", "<=", ">=", "==")
        ):
            return
        lhs = linearize(_subst_formals(pred.lhs, env))
        rhs = linearize(_subst_formals(pred.rhs, env))
        if lhs is None or rhs is None:
            return
        diff = lhs.plus(rhs, sign=-1)  # lhs - rhs
        rng = _numeric_range(diff, self.iters)
        if rng is None:
            return
        lo, hi = rng
        ok = {
            "<": hi < 0,
            "<=": hi <= 0,
            ">": lo > 0,
            ">=": lo >= 0,
            "==": lo == 0 and hi == 0,
        }[pred.op]
        if not ok:
            self.report.add(
                "E_PRED",
                f"{callee}: precondition "
                f"'lhs {pred.op} rhs' not provable "
                f"(lhs - rhs ranges over [{lo}, {hi}])",
            )


def _subst_formals(e: Expr, env: Dict[Sym, Expr]) -> Expr:
    """Replace formal-name reads with the call's actual expressions."""
    if isinstance(e, Read) and not e.idx and e.name in env:
        return env[e.name]
    if isinstance(e, BinOp):
        return BinOp(
            e.op,
            _subst_formals(e.lhs, env),
            _subst_formals(e.rhs, env),
            e.type,
        )
    if isinstance(e, USub):
        return USub(_subst_formals(e.arg, env), e.type)
    return e


# ---------------------------------------------------------------------------
# Event pass (static unroll: def-before-use, liveness, pressure, census)
# ---------------------------------------------------------------------------


@dataclass
class _Event:
    """One unrolled instruction instance with classified operands."""

    phase: str  # 'pre' | 'k' | 'post'
    pipe: str
    name: str
    accumulate: bool
    reads: List[tuple]
    writes: List[tuple]
    dest: Optional[tuple]


def _collect_events(steps: Sequence[Step], report: Report) -> List[_Event]:
    """Classify the kernel's unrolled stream into phase-tagged events.

    The stream (:func:`repro.core.codegen.asm.unroll_schedule`) unrolls
    every static loop, so window keys are exact register identities;
    the symbolic k-loop body is walked once with ``k`` left free, which
    is sound because register windows in a finished schedule never
    index by ``k``.  A non-static loop elsewhere cannot be counted: it
    is a census drift, and the steps of its body are skipped.
    """
    events: List[_Event] = []
    for step in steps:
        s = step.stmt
        if step.dynamic or step.kind == "long":
            continue
        if step.kind == "loop":
            report.add(
                "E_COUNT_DRIFT",
                f"non-static loop over {s.iter} inside the "
                f"{step.phase} phase",
            )
            continue
        if step.kind == "other":
            if not isinstance(s, (Alloc, Pass)):
                report.add(
                    "E_COUNT_DRIFT",
                    f"unexpected {type(s).__name__} in the {step.phase} "
                    "phase of a finished schedule",
                )
            continue
        info = s.proc.instr
        if info is None:
            report.add(
                "E_COUNT_DRIFT",
                f"call to non-instruction {s.proc.name} survives "
                "in the schedule",
            )
            continue
        kinds = classify_formals(s.proc)
        accumulate = False
        reads: List[tuple] = []
        writes: List[tuple] = []
        dest: Optional[tuple] = None
        for formal, actual, key in zip(s.proc.args, s.args, step.args):
            kind = kinds.get(formal.name)
            if not isinstance(actual, WindowExpr) or key is None:
                continue  # a scalar, or a window with no register key
            if kind in ("read", "reduce"):
                reads.append(key)
            if kind in ("write", "reduce"):
                writes.append(key)
                if dest is None:
                    dest = key
                if kind == "reduce":
                    accumulate = True
        events.append(
            _Event(
                phase=step.phase,
                pipe=info.pipe,
                name=s.proc.name,
                accumulate=accumulate,
                reads=reads,
                writes=writes,
                dest=dest,
            )
        )
    return events


def _register_buffers(ir: Proc) -> Dict[Sym, bool]:
    """Map allocated buffers to whether they live in a register file."""
    out: Dict[Sym, bool] = {}

    def walk(block: Sequence[Stmt]) -> None:
        for s in block:
            if isinstance(s, Alloc):
                out[s.name] = bool(
                    s.mem is not None and s.mem.is_register_file
                )
            elif isinstance(s, For):
                walk(s.body)

    walk(ir.body)
    return out


def _check_events(
    events: List[_Event],
    allocs: Dict[Sym, bool],
    registers: int,
    report: Report,
) -> Dict[str, Dict[str, int]]:
    """Run the event-stream checks; return the per-phase pipe census."""
    # -- def-before-use over allocated buffers (exact unrolled keys) --
    written: set = set()
    for ev in events:
        for key in ev.reads:
            buf = key[0]
            if buf in allocs and key not in written:
                report.add(
                    "E_UNDEF_READ",
                    f"{ev.name} reads {buf} register {key[1:]} "
                    "before any write",
                )
        written.update(ev.writes)

    # -- accumulator liveness ----------------------------------------
    accs = {
        ev.dest
        for ev in events
        if ev.phase == "k" and ev.pipe == "fma" and ev.accumulate
    }
    accs.discard(None)
    for ev in events:
        if ev.phase != "k":
            continue
        for key in ev.writes:
            if key in accs and not (ev.accumulate and ev.dest == key):
                report.add(
                    "E_ACC_CLOBBER",
                    f"{ev.name} overwrites accumulator {key[1:]} "
                    "inside the k-loop",
                )
    stored: set = set()
    for ev in events:
        if ev.phase != "post":
            continue
        for key in ev.writes:
            if key in accs and key not in stored:
                report.add(
                    "E_ACC_CLOBBER",
                    f"{ev.name} overwrites accumulator {key[1:]} "
                    "before its store",
                )
        for key in ev.reads:
            if key in accs:
                stored.add(key)
    for key in sorted(accs - stored, key=repr):
        report.add(
            "E_ACC_UNSTORED",
            f"accumulator {key[1:]} of buffer {key[0]} is never "
            "stored back",
        )

    # -- register pressure -------------------------------------------
    live_regs = {
        key
        for ev in events
        for key in (*ev.reads, *ev.writes)
        if allocs.get(key[0], False)
    }
    if len(live_regs) > registers:
        report.add(
            "E_REG_PRESSURE",
            f"kernel names {len(live_regs)} vector registers; the "
            f"target register file holds {registers}",
        )

    # -- census ------------------------------------------------------
    census: Dict[str, Dict[str, int]] = {"pre": {}, "k": {}, "post": {}}
    for ev in events:
        bucket = census[ev.phase]
        bucket[ev.pipe] = bucket.get(ev.pipe, 0) + 1
    return census


#: alu bookkeeping ops the timing model appends to every iteration
_LOOP_BOOKKEEPING_ALU = 3


def _check_census(
    census: Dict[str, Dict[str, int]],
    kernel,
    trace,
    report: Report,
) -> None:
    """Cross-check the static census against the timing-model trace."""
    mr, nr, lanes = kernel.mr, kernel.nr, kernel.lanes
    k_counts = dict(census["k"])
    fma = k_counts.get("fma", 0)
    if fma * lanes != mr * nr:
        report.add(
            "E_COUNT_DRIFT",
            f"k-loop census finds {fma} FMA ops x {lanes} lanes = "
            f"{fma * lanes} MACs per iteration; an {mr}x{nr} tile "
            f"needs {mr * nr}",
        )
    if trace is None:
        return
    expected = dict(k_counts)
    expected["alu"] = expected.get("alu", 0) + _LOOP_BOOKKEEPING_ALU
    traced = trace.counts()
    for pipe in sorted(set(expected) | set(traced)):
        if expected.get(pipe, 0) != traced.get(pipe, 0):
            report.add(
                "E_COUNT_DRIFT",
                f"{pipe} pipe: static census expects "
                f"{expected.get(pipe, 0)} ops/iter (incl. bookkeeping)"
                f" but the timing model prices {traced.get(pipe, 0)}",
            )
    if trace.flops_per_iter != 2 * mr * nr:
        report.add(
            "E_COUNT_DRIFT",
            f"timing model prices {trace.flops_per_iter} flops/iter; "
            f"an {mr}x{nr} tile performs {2 * mr * nr}",
        )
    pro = sum(census["pre"].values())
    epi = sum(census["post"].values())
    if pro != trace.prologue_vector_ops:
        report.add(
            "E_COUNT_DRIFT",
            f"prologue census finds {pro} ops but the timing model "
            f"amortizes {trace.prologue_vector_ops}",
        )
    if epi != trace.epilogue_vector_ops:
        report.add(
            "E_COUNT_DRIFT",
            f"epilogue census finds {epi} ops but the timing model "
            f"amortizes {trace.epilogue_vector_ops}",
        )


# ---------------------------------------------------------------------------
# Instruction-proc verification (the callee side of the contract)
# ---------------------------------------------------------------------------

#: ``id(proc) -> (proc, findings)``; the entry pins its proc, like
#: ``repro.core.effects.classify_formals``'s memo
_instr_checked: Dict[int, Tuple[Proc, List[Finding]]] = {}


def _pred_iter_bounds(proc: Proc) -> _IterBounds:
    """Scalar-formal ranges harvested from conjunctive preconditions."""
    bounds: Dict[Sym, List[Optional[int]]] = {}

    def note(sym: Sym, lo: Optional[int], hi: Optional[int]) -> None:
        cur = bounds.setdefault(sym, [None, None])
        if lo is not None and (cur[0] is None or lo > cur[0]):
            cur[0] = lo
        if hi is not None and (cur[1] is None or hi < cur[1]):
            cur[1] = hi

    def scan(pred: Expr) -> None:
        if isinstance(pred, BinOp) and pred.op == "and":
            scan(pred.lhs)
            scan(pred.rhs)
            return
        if not isinstance(pred, BinOp):
            return
        if isinstance(pred.lhs, Read) and not pred.lhs.idx:
            k = try_constant(pred.rhs)
            if k is None:
                return
            sym = pred.lhs.name
            if pred.op == ">=":
                note(sym, k, None)
            elif pred.op == ">":
                note(sym, k + 1, None)
            elif pred.op == "<=":
                note(sym, None, k)
            elif pred.op == "<":
                note(sym, None, k - 1)
            elif pred.op == "==":
                note(sym, k, k)

    for pred in proc.preds:
        scan(pred)
    return {
        sym: (LinExpr({}, lo), LinExpr({}, hi))
        for sym, (lo, hi) in bounds.items()
        if lo is not None and hi is not None
    }


def _verify_instr_proc(proc: Proc) -> List[Finding]:
    """Bounds-check an instruction body against its formal shapes."""
    cached = _instr_checked.get(id(proc))
    if cached is not None and cached[0] is proc:
        return cached[1]
    report = Report(proc.name)
    bp = _BoundsPass(proc, report)
    bp.iters.update(_pred_iter_bounds(proc))
    bp.run(proc.body)
    _instr_checked[id(proc)] = (proc, report.findings)
    return report.findings


def _instr_procs(ir: Proc) -> List[Proc]:
    """Every distinct instruction proc called from the kernel body."""
    seen: Dict[int, Proc] = {}

    def walk(block: Sequence[Stmt]) -> None:
        for s in block:
            if isinstance(s, Call):
                seen.setdefault(id(s.proc), s.proc)
            elif isinstance(s, For):
                walk(s.body)

    walk(ir.body)
    return list(seen.values())


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def verify_kernel(kernel, machine=None) -> Report:
    """Run every static check over one :class:`GeneratedKernel`.

    The vector-register budget is the machine's ``vector_registers``
    (32 without a machine).  The census cross-checks the kernel's trace
    (:func:`repro.sim.pipeline.trace_from_kernel`, cached on the kernel),
    so it always compares against exactly what the model prices.
    """
    report = Report(kernel.name)
    ir: Proc = kernel.proc.ir
    registers = machine.vector_registers if machine is not None else 32

    bounds = _BoundsPass(ir, report)
    bounds.run(ir.body)
    for instr in _instr_procs(ir):
        for finding in _verify_instr_proc(instr):
            report.add(
                finding.code,
                f"in instruction {instr.name}: {finding.message}",
            )

    events = _collect_events(kernel.unrolled, report)
    census = _check_events(
        events, _register_buffers(ir), registers, report
    )

    try:
        from repro.sim.pipeline import trace_from_kernel

        trace = trace_from_kernel(kernel)
    except CodegenError as exc:
        report.add(
            "E_COUNT_DRIFT",
            f"timing model cannot trace the kernel: {exc}",
        )
        trace = None
    _check_census(census, kernel, trace, report)
    return report


def verify_plan(parts, mr: int, nr: int, machine=None) -> Report:
    """Verify the ``(row_offset, kernel)`` parts of an ``mr x nr`` VLA
    tile: every part plus row coverage.

    Each part (including the reduced-AVL ``vsetvl`` tail) runs the full
    kernel check; the parts must additionally tile the logical MR
    contiguously from row 0, or the tile computes the wrong C rows.
    """
    report = Report(f"vla_{mr}x{nr}")
    expect_off = 0
    for off, part in parts:
        if off != expect_off:
            report.add(
                "E_PLAN_COVER",
                f"part {part.name} starts at row {off}; rows "
                f"[{expect_off}, {off}) are uncovered",
            )
        expect_off = off + part.mr
        sub = verify_kernel(part, machine=machine)
        for finding in sub.findings:
            report.add(
                finding.code,
                f"part {part.name} (rows {off}..{off + part.mr - 1}): "
                f"{finding.message}",
            )
    if expect_off != mr:
        report.add(
            "E_PLAN_COVER",
            f"parts cover {expect_off} rows of the {mr}-row tile",
        )
    return report


def verify_tile(isa: str, mr: int, nr: int) -> Report:
    """Verify the kernels an ISA runs for one tile (its ``tile_parts``).

    A tile that runs more than one part verifies as a plan (report
    ``vla_<mr>x<nr>``); a one-part tile is its one stored kernel, under
    that kernel's name (the 1-row tiles of a VLA target run the same
    ``uk_1x<nr>`` row kernel a packed target does).
    """
    from repro.isa.targets import target as isa_target

    t = isa_target(isa)
    parts = t.tile_parts(mr, nr)
    if len(parts) > 1:
        return verify_plan(parts, mr, nr, machine=t.machine)
    ((_, kernel),) = parts
    return verify_kernel(kernel, machine=t.machine)


def _ragged_tiles(t) -> List[Tuple[int, int]]:
    """Extra VLA tiles exercising the reduced-AVL ``vsetvl`` tails."""
    if not t.vla:
        return []
    lanes = t.lib["lanes"]
    nr = t.main_tile[1]
    raw = [(lanes + 1, nr), (max(2, lanes - 1), nr)]
    return [tile for tile in raw if tile[0] % lanes]


def verify_target(
    isa: str, tiles: Optional[Sequence[Tuple[int, int]]] = None
) -> List[Report]:
    """Verify the kernels of every family tile of one ISA target.

    Defaults to the target's full register-tile family; VLA targets
    additionally verify ragged-MR tiles so the ``vsetvl`` tail parts
    are covered by every sweep.
    """
    from repro.isa.targets import target as isa_target

    t = isa_target(isa)
    if tiles is None:
        tiles = list(t.family) + _ragged_tiles(t)
    return [verify_tile(t.name, mr, nr) for mr, nr in tiles]
