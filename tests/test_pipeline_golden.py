"""Exact pin of the pipeline scheduler's steady-state cycles.

Every case below prices one kernel trace with
``PipelineModel.steady_cycles_per_iter`` on its target machine and
records the ``repr`` of the result; the strings must match
``tests/data/pipeline_golden.json``.  The cases cover every register
tile of every registered ISA target's family (``numa2s`` included), the
RVV vector-length-agnostic parts for ``mr = 1 .. 2 * lanes``, and the
Neon-intrinsics and BLIS-assembly baseline traces on Carmel.  A change
to the scheduler's search must leave all of them unchanged.

Regenerate the pin only when a change to the modelled cycles is
intended::

    PYTHONPATH=src python tests/test_pipeline_golden.py --write
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.baselines.blis_asm import blis_kernel_model
from repro.baselines.neon_handwritten import neon_kernel_model
from repro.isa.machine import CARMEL, MachineModel
from repro.isa.targets import ISA_TARGETS
from repro.sim.pipeline import KernelTrace, PipelineModel, trace_from_kernel
from repro.ukernel.generator import (
    generate_microkernel,
    generate_vla_microkernel,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "pipeline_golden.json"

Case = Callable[[], Tuple[MachineModel, List[KernelTrace]]]


def _cases() -> Dict[str, Case]:
    cases: Dict[str, Case] = {}
    for name, t in sorted(ISA_TARGETS.items()):
        for mr, nr in t.family:
            cases[f"family/{name}/{mr}x{nr}"] = (
                lambda t=t, mr=mr, nr=nr: (
                    t.machine,
                    [trace_from_kernel(generate_microkernel(mr, nr, t.lib))],
                )
            )
        if t.lib_factory is None:
            continue
        lanes = t.lib["lanes"]
        for nr in sorted({w for _, w in t.family}):
            for mr in range(1, 2 * lanes + 1):
                cases[f"vla/{name}/{mr}x{nr}"] = (
                    lambda t=t, mr=mr, nr=nr: (
                        t.machine,
                        [
                            trace_from_kernel(kernel)
                            for _, kernel in generate_vla_microkernel(
                                mr, nr, t.lib_factory
                            )
                        ],
                    )
                )
    cases["baseline/neon/8x12"] = lambda: (CARMEL, [neon_kernel_model()])
    cases["baseline/blis/8x12"] = lambda: (CARMEL, [blis_kernel_model()])
    return cases


CASES = _cases()


def case_cycles(key: str) -> str:
    """The ``repr`` of every trace's cycles/iter, ``;``-joined."""
    machine, traces = CASES[key]()
    pm = PipelineModel(machine=machine)
    return ";".join(repr(pm.steady_cycles_per_iter(t)) for t in traces)


@lru_cache(maxsize=None)
def _load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["cycles"]


def test_golden_covers_every_case():
    assert sorted(_load_golden()) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_steady_cycles_match_golden(key):
    assert case_cycles(key) == _load_golden()[key]


def _write_golden() -> None:
    cycles = {key: case_cycles(key) for key in sorted(CASES)}
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "about": "repr of PipelineModel.steady_cycles_per_iter per "
                "kernel trace; see tests/test_pipeline_golden.py",
                "cycles": cycles,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(cycles)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_pipeline_golden.py --write")
    _write_golden()
