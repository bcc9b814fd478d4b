"""Out-of-order pipeline model for micro-kernel steady-state throughput.

The model executes the k-loop instruction trace of a scheduled kernel on an
abstract core described by a :class:`~repro.isa.machine.MachineModel`:

* every instruction occupies one slot on its functional-unit class
  (``fma`` / ``load`` / ``store`` / ``alu``), with per-cycle unit counts
  from the machine description;
* vector operations (fma, vector load/store) additionally share the
  *vector dispatch* slots — on Carmel, two per cycle.  This captures the
  empirical ~85% FMA efficiency of the hand-written kernels: the five
  operand loads per iteration steal vector slots from the 24 FMAs;
* results become available ``latency`` cycles after issue; consumers wait;
* issue is out-of-order with an unbounded window (Carmel's ROB is far
  larger than these loop bodies), so only true dependencies and resource
  conflicts constrain the schedule;
* accumulators (read-modify-write destinations) form loop-carried chains —
  the mechanism that throttles small register tiles (a 4x4 tile has four
  independent chains of latency-4 FMAs: at most one FMA per cycle no
  matter how many pipes exist).

Steady-state cycles per k-iteration are measured by simulating a window of
iterations and differencing completion times across the middle of the run.

Both inputs are built once per process.  :func:`trace_from_kernel`
reads the kernel's one unrolled instruction stream
(``GeneratedKernel.unrolled``, which the verifier reads too) and caches
the trace on the :class:`GeneratedKernel` itself, so every consumer
(eval contexts, serving executors, VLA part lists, the verifier) reads
one :class:`KernelTrace` object; and
:meth:`PipelineModel.steady_cycles_per_iter` memoizes its schedule on
that trace, keyed by exactly the machine fields the scheduler reads.
Neither may be mutated once built.

The scheduler is first-fit in trace order: each operation issues at the
first cycle at or after its operands are ready where its pipe, the vector
dispatch slots (for ``chime`` consecutive cycles) and the issue width all
have room.  Busy counts only grow, so a cycle where an op of some pipe
cannot issue stays full for every later op of that pipe.  The search keeps
one monotone floor per pipe, the first cycle such an op might still
issue, and starts at ``max(ready, floor)``: it never rescans the full
cycles behind the floor, and finds the same cycle as stepping from
``ready``.  ``tests/test_pipeline_sched.py`` holds the cycle-stepping
oracle and checks the two agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.codegen.asm import Step, accumulates, k_loop_calls
from repro.core.loopir import WindowExpr
from repro.core.prelude import CodegenError
from repro.isa.machine import CARMEL, MachineModel

VECTOR_PIPES = ("fma", "load", "store")


@dataclass(frozen=True)
class TraceOp:
    """One operation of the per-iteration trace."""

    pipe: str
    latency: int
    dest: Optional[tuple]  # value key, None for stores
    srcs: Tuple[tuple, ...]
    accumulate: bool = False  # dest is also a source (loop-carried)
    name: str = ""


@dataclass
class KernelTrace:
    """The k-loop body of a kernel as a flat operation list.

    ``prologue_vector_ops``/``epilogue_vector_ops`` count the C-tile loads
    and stores outside the k-loop (amortized per kernel invocation).
    A trace is shared and never mutated: build a new one (e.g. with
    ``dataclasses.replace``, which starts an empty schedule memo).
    """

    ops: List[TraceOp]
    flops_per_iter: int
    prologue_vector_ops: int
    epilogue_vector_ops: int
    extra_call_cycles: float = 0.0
    #: scheduler key -> steady-state cycles/iter (see PipelineModel)
    schedules: Dict[tuple, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def counts(self) -> Dict[str, int]:
        """Operations per pipe."""
        out: Dict[str, int] = {}
        for op in self.ops:
            out[op.pipe] = out.get(op.pipe, 0) + 1
        return out


def trace_from_kernel(kernel, extra_alu_per_iter: int = 0) -> KernelTrace:
    """The per-iteration trace of a :class:`GeneratedKernel`.

    The plain trace is built once per kernel and cached on it, so every
    caller shares one object.  ``extra_alu_per_iter`` injects bookkeeping
    operations — used by the baseline models to represent
    compiler-generated addressing overhead in intrinsics code — and
    builds a fresh, uncached trace.
    """
    if extra_alu_per_iter:
        return _build_trace(kernel, extra_alu_per_iter)
    if kernel.trace is None:
        kernel.trace = _build_trace(kernel, 0)
    return kernel.trace


def _build_trace(kernel, extra_alu_per_iter: int) -> KernelTrace:
    steps = kernel.unrolled
    ops = [_op_from_step(step) for step in k_loop_calls(steps)]
    for _ in range(extra_alu_per_iter):
        ops.append(TraceOp("alu", 1, None, (), name="addr"))
    # loop bookkeeping: increment, compare, branch
    for name in ("add", "cmp", "b"):
        ops.append(TraceOp("alu", 1, None, (), name=name))
    # the C tile transfers outside the k-loop; a non-static loop's body
    # sits in the stream once
    calls = [step.phase for step in steps if step.kind == "call"]
    return KernelTrace(
        ops=ops,
        flops_per_iter=kernel.flops_per_k(),
        prologue_vector_ops=calls.count("pre"),
        epilogue_vector_ops=calls.count("post"),
    )


def _op_from_step(step: Step) -> TraceOp:
    call = step.stmt
    info = call.proc.instr
    if info is None:
        raise CodegenError(f"call to non-instruction {call.proc.name}")
    dest: Optional[tuple] = None
    srcs: List[tuple] = []
    accumulate = False
    if info.pipe in ("load", "alu"):
        if call.args and isinstance(call.args[0], WindowExpr):
            dest = step.key(0)
    elif info.pipe == "store":
        for i, actual in enumerate(call.args[1:], 1):
            if isinstance(actual, WindowExpr):
                srcs.append(step.key(i))
    elif info.pipe == "fma":
        dest = step.key(0)

        # the first argument of every FMA-class instruction is dst (also read)
        accumulate = accumulates(call.proc.body)
        for i, actual in enumerate(call.args[1:], 1):
            if isinstance(actual, WindowExpr):
                srcs.append(step.key(i))
        if accumulate:
            srcs.append(dest)
    return TraceOp(
        pipe=info.pipe,
        latency=info.latency,
        dest=dest,
        srcs=tuple(srcs),
        accumulate=accumulate,
        name=call.proc.name,
    )


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


@dataclass
class PipelineModel:
    """Resource-and-latency scheduler for kernel traces."""

    machine: MachineModel = CARMEL
    vector_dispatch: Optional[int] = None  # defaults to the FMA pipe count

    def _dispatch_width(self) -> int:
        if self.vector_dispatch is not None:
            return self.vector_dispatch
        return self.machine.pipe_count("fma")

    def steady_cycles_per_iter(
        self, trace: KernelTrace, window: int = 48
    ) -> float:
        """Simulate ``window`` k-iterations; return steady-state cycles/iter.

        Memoized on ``trace`` under the fields the scheduler reads, so
        machines that differ only elsewhere (a ``replica_topology``
        view and its base machine) share one schedule.
        """
        machine = self.machine
        vec_width = self._dispatch_width()
        key = (
            machine.issue_width, machine.pipes, machine.vector_chime,
            vec_width, window,
        )
        cycles = trace.schedules.get(key)
        if cycles is None:
            cycles = trace.schedules[key] = self._schedule(
                trace, vec_width, window
            )
        return cycles

    def _schedule(
        self, trace: KernelTrace, vec_width: int, window: int
    ) -> float:
        """The first-fit schedule of ``window`` iterations of ``trace``."""
        machine = self.machine
        issue_width = machine.issue_width
        # one op can push the schedule's last busy cycle or completion
        # out by at most chime + latency, which bounds every cycle index
        horizon = 1 + window * sum(
            _chime(machine, op) + op.latency for op in trace.ops
        )
        issue_busy = [0] * horizon
        vec_busy = [0] * horizon
        pipe_busy: Dict[str, List[int]] = {}
        values: Dict[tuple, int] = {}  # value key -> dense index
        plan = []
        for op in trace.ops:
            if op.pipe not in pipe_busy:
                pipe_busy[op.pipe] = [0] * horizon
            plan.append((
                op.pipe,
                pipe_busy[op.pipe],
                machine.pipe_count(op.pipe),
                _chime(machine, op),
                op.pipe in VECTOR_PIPES,
                tuple(
                    (values.setdefault(src, len(values)), _is_chain(op, src))
                    for src in op.srcs
                ),
                None if op.dest is None
                else values.setdefault(op.dest, len(values)),
                op.accumulate,
                op.latency,
            ))
        # no op of a pipe can issue below that pipe's floor
        floor = dict.fromkeys(pipe_busy, 0)
        # completion cycle of each value: the latest accumulate write, and
        # the latest plain write together with its iteration
        chain_done = [0] * len(values)
        plain_done = [0] * len(values)
        plain_iter = [-1] * len(values)
        iter_finish: List[int] = []

        for it in range(window):
            finish = 0
            for (
                pipe, busy, units, chime, vector, srcs, dest, accumulate,
                latency,
            ) in plan:
                # a plain value counts once this iteration has written it;
                # otherwise (and for a chain) the accumulator's latest
                # write does; a value never written delays nothing
                start = 0
                for value, chain in srcs:
                    if not chain and plain_iter[value] == it:
                        start = max(start, plain_done[value])
                    else:
                        start = max(start, chain_done[value])
                cycle = max(start, floor[pipe])
                while True:
                    if issue_busy[cycle] < issue_width:
                        for cc in range(cycle, cycle + chime):
                            if busy[cc] >= units or (
                                vector and vec_busy[cc] >= vec_width
                            ):
                                break
                        else:
                            break
                    cycle += 1
                if start <= floor[pipe]:
                    floor[pipe] = cycle
                for cc in range(cycle, cycle + chime):
                    busy[cc] += 1
                    if vector:
                        vec_busy[cc] += 1
                issue_busy[cycle] += 1
                done = cycle + (chime - 1) + latency
                if dest is not None:
                    if accumulate:
                        chain_done[dest] = done
                    else:
                        plain_done[dest] = done
                        plain_iter[dest] = it
                finish = max(finish, done)
            iter_finish.append(finish)

        lo = window // 4
        hi = 3 * window // 4
        return (iter_finish[hi] - iter_finish[lo]) / (hi - lo)


def _chime(machine: MachineModel, op: TraceOp) -> int:
    """Cycles ``op`` holds its unit.

    Vector ops take the machine's chime count (RVV cores with a datapath
    narrower than VLEN); every other op takes one.
    """
    return machine.vector_chime if op.pipe in VECTOR_PIPES else 1


def _is_chain(op: TraceOp, src: tuple) -> bool:
    return op.accumulate and op.dest == src
