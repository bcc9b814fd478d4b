"""The pipeline scheduler against a cycle-stepping oracle.

:func:`reference_steady_cycles` is the straightforward form of the
scheduler's first-fit rule: each operation, in trace order, issues at
the first cycle at or after its operands are ready where its pipe, the
vector-dispatch slots (for ``chime`` consecutive cycles) and the issue
width all have room, found by testing one cycle at a time.  The
production :meth:`PipelineModel.steady_cycles_per_iter` skips cycles it
already knows are full; the property below asserts the two agree
exactly on random traces and random machines.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.machine import CARMEL
from repro.isa.targets import ISA_TARGETS
from repro.sim.pipeline import (
    VECTOR_PIPES,
    KernelTrace,
    PipelineModel,
    TraceOp,
    trace_from_kernel,
)
from repro.ukernel.generator import generate_microkernel


def reference_steady_cycles(
    pm: PipelineModel, trace: KernelTrace, window: int = 48
) -> float:
    """Cycle-stepping oracle for ``pm.steady_cycles_per_iter``."""
    machine = pm.machine
    vec_width = pm._dispatch_width()
    ready: Dict[tuple, int] = {}
    pipe_busy: Dict[Tuple[int, str], int] = {}
    vec_busy: Dict[int, int] = {}
    issue_busy: Dict[int, int] = {}
    iter_finish: List[int] = []

    def can_issue(cycle: int, op: TraceOp, chime: int) -> bool:
        for cc in range(cycle, cycle + chime):
            if pipe_busy.get((cc, op.pipe), 0) >= machine.pipe_count(op.pipe):
                return False
            if op.pipe in VECTOR_PIPES and vec_busy.get(cc, 0) >= vec_width:
                return False
        return issue_busy.get(cycle, 0) < machine.issue_width

    for it in range(window):
        finish = 0
        for op in trace.ops:
            start = 0
            for src in op.srcs:
                chain = op.accumulate and op.dest == src
                key = src if chain else (src, it)
                if key in ready:
                    start = max(start, ready[key])
                elif src in ready:
                    start = max(start, ready[src])
            chime = machine.vector_chime if op.pipe in VECTOR_PIPES else 1
            cycle = start
            while not can_issue(cycle, op, chime):
                cycle += 1
            for cc in range(cycle, cycle + chime):
                pipe_busy[(cc, op.pipe)] = pipe_busy.get((cc, op.pipe), 0) + 1
                if op.pipe in VECTOR_PIPES:
                    vec_busy[cc] = vec_busy.get(cc, 0) + 1
            issue_busy[cycle] = issue_busy.get(cycle, 0) + 1
            done = cycle + (chime - 1) + op.latency
            if op.dest is not None:
                if op.accumulate:
                    ready[op.dest] = done
                else:
                    ready[(op.dest, it)] = done
            finish = max(finish, done)
        iter_finish.append(finish)

    lo = window // 4
    hi = 3 * window // 4
    return (iter_finish[hi] - iter_finish[lo]) / (hi - lo)


# "branch" is absent from every machine's pipes (one unit, not vector)
PIPES = VECTOR_PIPES + ("alu", "branch")
#: operand registers: A/B inputs and C accumulators
INPUTS = [("a", i) for i in range(3)] + [("b", i) for i in range(3)]
ACCS = [("c", i) for i in range(4)]


@st.composite
def trace_ops(draw) -> List[TraceOp]:
    """Loads feeding accumulate chains, plus free-form operations.

    The free-form ops read any register, so a non-chain source may name
    an accumulator (the scheduler's ``elif src in ready`` path) or a
    value not produced yet this iteration.  A "carried" op reads its own
    plain destination: only this iteration's write of it counts, never
    the previous iteration's.
    """
    ops: List[TraceOp] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["load", "chain", "free", "carried"]))
        latency = draw(st.integers(1, 6))
        if kind == "load":
            dest = draw(st.sampled_from(INPUTS))
            ops.append(TraceOp("load", latency, dest, ()))
        elif kind == "carried":
            dest = draw(st.sampled_from(INPUTS))
            pipe = draw(st.sampled_from(PIPES))
            ops.append(TraceOp(pipe, latency, dest, (dest,)))
        elif kind == "chain":
            dest = draw(st.sampled_from(ACCS))
            srcs = draw(st.lists(st.sampled_from(INPUTS), max_size=2))
            ops.append(
                TraceOp("fma", latency, dest, tuple(srcs) + (dest,), True)
            )
        else:
            regs = st.sampled_from(INPUTS + ACCS)
            ops.append(
                TraceOp(
                    draw(st.sampled_from(PIPES)),
                    latency,
                    draw(st.one_of(st.none(), regs)),
                    tuple(draw(st.lists(regs, max_size=3))),
                    draw(st.booleans()),
                )
            )
    for _ in range(draw(st.integers(0, 3))):
        ops.append(TraceOp("alu", 1, None, ()))
    return ops


@st.composite
def pipeline_models(draw) -> PipelineModel:
    names = draw(
        st.lists(st.sampled_from(PIPES[:4]), unique=True, max_size=4)
    )
    machine = dataclasses.replace(
        CARMEL,
        pipes=tuple((n, draw(st.integers(1, 3))) for n in names),
        issue_width=draw(st.integers(1, 6)),
        vector_chime=draw(st.integers(1, 4)),
    )
    dispatch = draw(st.one_of(st.none(), st.integers(1, 4)))
    return PipelineModel(machine=machine, vector_dispatch=dispatch)


class TestSchedulerOracle:
    @given(
        ops=trace_ops(),
        pm=pipeline_models(),
        window=st.sampled_from([8, 16, 48]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_cycle_stepping_oracle(self, ops, pm, window):
        trace = KernelTrace(ops, 0, 0, 0)
        assert pm.steady_cycles_per_iter(trace, window) == (
            reference_steady_cycles(pm, trace, window)
        )

    def test_empty_trace(self):
        trace = KernelTrace([], 0, 0, 0)
        assert PipelineModel().steady_cycles_per_iter(trace) == 0.0

    def test_matches_oracle_on_kernel_traces(self):
        for name in ("neon", "rvv128", "avx512"):
            t = ISA_TARGETS[name]
            pm = PipelineModel(machine=t.machine)
            for mr, nr in (t.family[0], t.family[-1]):
                trace = trace_from_kernel(generate_microkernel(mr, nr, t.lib))
                for window in (8, 48):
                    assert pm.steady_cycles_per_iter(trace, window) == (
                        reference_steady_cycles(pm, trace, window)
                    ), (name, mr, nr, window)
