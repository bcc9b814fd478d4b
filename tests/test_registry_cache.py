"""Cache semantics of the per-ISA kernel views and the kernel store.

Two machines tagged with the same ``isa`` must get one target (and so
one set of generated kernels); distinct ISAs must be isolated; and a
run on another backend must never generate a Neon kernel.  Behind the
targets, the process-wide kernel store builds each distinct (tile,
library, variant) once.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.isa.machine import CARMEL, RVV_EDGE_VLEN128, RVV_SERVER_VLEN256
from repro.isa.targets import ISA_TARGETS, target, target_for_machine
from repro.isa.neon import NEON_F32_LIB
from repro.ukernel import generator as gen
from repro.ukernel import registry as reg


@pytest.fixture()
def generations(monkeypatch):
    """An empty kernel store (and part memos) whose misses are counted.

    Counts ``generate_microkernel`` calls per ``(mr, nr, id(lib),
    variant)``, the way the workflow benchmark wraps it by name.
    """
    calls = Counter()
    real = gen.generate_microkernel

    def counted(mr, nr, lib=None, variant="auto"):
        calls[(mr, nr, id(lib), variant)] += 1
        return real(mr, nr, lib, variant=variant)

    monkeypatch.setattr(gen, "generate_microkernel", counted)
    monkeypatch.setattr(gen, "_KERNEL_STORE", {})
    # the targets' tile parts are views of the store too
    for t in ISA_TARGETS.values():
        monkeypatch.setattr(t, "_parts", {})
    return calls


class TestTargetForMachine:
    def test_same_isa_twin_gets_the_same_kernels(self, generations):
        from repro.eval.harness import EvalContext

        twin = dataclasses.replace(
            RVV_EDGE_VLEN128, name="another VLEN=128 core"
        )
        assert twin is not RVV_EDGE_VLEN128
        assert target_for_machine(twin) is target_for_machine(
            RVV_EDGE_VLEN128
        )
        k = target_for_machine(RVV_EDGE_VLEN128).get(1, 4)
        assert target_for_machine(twin).get(1, 4) is k
        one = EvalContext(machine=RVV_EDGE_VLEN128)
        two = EvalContext(machine=twin)
        assert two.exo_trace(1, 4) is one.exo_trace(1, 4)
        assert sum(generations.values()) == 1

    def test_distinct_isas_get_distinct_kernels(self, generations):
        t128 = target_for_machine(RVV_EDGE_VLEN128)
        t256 = target_for_machine(RVV_SERVER_VLEN256)
        assert t128 is not t256
        assert t128.lib["lanes"] == 4
        assert t256.lib["lanes"] == 8
        k128, k256 = t128.get(8, 8), t256.get(8, 8)
        assert k128 is not k256
        assert (k128.lanes, k256.lanes) == (4, 8)
        assert sum(generations.values()) == 2

    def test_rvv_run_generates_no_neon_kernel(self, generations):
        from repro.eval.harness import EvalContext, plane_chunk_plans

        ctx = EvalContext(machine=RVV_EDGE_VLEN128)
        ctx.exo_trace(*ctx.main_tile)
        # a ragged plane: full-width parts plus reduced-vsetvl tails
        assert len(plane_chunk_plans(ctx, 10, 16, 8, 12)) == 4
        assert generations
        neon = id(target("neon").lib)
        assert all(key[2] != neon for key in generations)

    def test_registry_for_machine_is_the_machines_target(self):
        assert reg.registry_for_machine(CARMEL) is target("neon")
        machine = RVV_SERVER_VLEN256
        assert reg.registry_for_machine(machine) is target("rvv256")
        kernel = reg.registry_for_machine(machine).get(8, 8)
        assert kernel is target("rvv256").get(8, 8)


class TestKernelStore:
    def test_same_key_returns_the_same_kernel(self, generations):
        k = gen.stored_microkernel(4, 4, NEON_F32_LIB)
        assert gen.stored_microkernel(4, 4, NEON_F32_LIB) is k
        # "auto" shares the entry of the flavour it resolves to
        assert gen.stored_microkernel(4, 4, NEON_F32_LIB, "packed") is k
        assert sum(generations.values()) == 1

    def test_libraries_are_told_apart_by_identity(self, generations):
        twin = dict(NEON_F32_LIB)
        assert twin == NEON_F32_LIB
        k = gen.stored_microkernel(4, 4, NEON_F32_LIB)
        k_twin = gen.stored_microkernel(4, 4, twin)
        assert k_twin is not k
        assert str(k_twin.proc) == str(k.proc)
        assert sum(generations.values()) == 2

    def test_target_vla_parts_and_verifier_share_kernels(self, generations):
        from repro.analysis.verifier import verify_tile
        from repro.eval.harness import EvalContext, plane_chunk_plans
        from repro.isa.targets import target

        body = target("rvv128").get(4, 4)
        first = gen.generate_vla_microkernel(
            5, 4, target("rvv128").lib_factory
        )
        again = gen.generate_vla_microkernel(
            5, 4, target("rvv128").lib_factory
        )
        assert first[0][1] is body
        assert all(a is b for (_, a), (_, b) in zip(again, first))
        built = sum(generations.values())
        assert built == 2  # the 4-row body and the 1-row vsetvl tail
        assert verify_tile("rvv128", 5, 4).ok
        assert verify_tile("rvv128", 4, 4).ok
        parts = target("rvv128").tile_parts(5, 4)
        assert all(a is b for (_, a), (_, b) in zip(parts, first))
        ctx = EvalContext(machine=RVV_EDGE_VLEN128)
        chunks = plane_chunk_plans(ctx, 5, 4, 5, 4)
        assert len(chunks) == len(parts) == 2
        assert all(c.trace is k.trace for c, (_, k) in zip(chunks, parts))
        assert sum(generations.values()) == built

    def test_cold_eval_builds_each_kernel_once(
        self, generations, monkeypatch, tmp_path
    ):
        from repro.eval import __main__ as eval_cli
        from repro.eval import harness

        monkeypatch.setattr(harness, "_default_context", None)
        monkeypatch.setattr(harness, "_machine_contexts", {})
        monkeypatch.setenv("REPRO_TUNECACHE", str(tmp_path / "tunecache"))
        for isa, threads in (
            ("neon", 8), ("avx512", 16), ("rvv128", 4), ("numa2s", 32)
        ):
            argv = [str(tmp_path / isa), "--isa", isa, "-q"]
            assert eval_cli.main(argv + ["--threads", str(threads)]) == 0
        assert generations
        assert set(generations.values()) == {1}
