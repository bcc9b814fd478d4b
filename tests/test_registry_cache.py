"""Cache semantics of the per-machine kernel registries and the store.

Two machines tagged with the same ``isa`` must share one registry (and
so one set of generated kernels); distinct ISAs must be isolated; and
the historical Neon process-wide default registry must never be touched
by a run on another backend.  Behind the registries, the process-wide
kernel store builds each distinct (tile, library, variant) once.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.isa.machine import CARMEL, RVV_EDGE_VLEN128, RVV_SERVER_VLEN256
from repro.isa.neon import NEON_F32_LIB
from repro.ukernel import generator as gen
from repro.ukernel import registry as reg


@pytest.fixture()
def clean_registries(monkeypatch):
    """Fresh registry globals; the session-wide ones restore on teardown."""
    monkeypatch.setattr(reg, "_default_registry", None)
    monkeypatch.setattr(reg, "_machine_registries", {})


class TestRegistryForMachine:
    def test_same_isa_shares_one_registry(self, clean_registries):
        twin = dataclasses.replace(
            RVV_EDGE_VLEN128, name="another VLEN=128 core"
        )
        assert twin is not RVV_EDGE_VLEN128
        r1 = reg.registry_for_machine(RVV_EDGE_VLEN128)
        r2 = reg.registry_for_machine(twin)
        assert r1 is r2
        r1.get(1, 4)
        assert (1, 4) in r2

    def test_distinct_isas_are_isolated(self, clean_registries):
        r128 = reg.registry_for_machine(RVV_EDGE_VLEN128)
        r256 = reg.registry_for_machine(RVV_SERVER_VLEN256)
        assert r128 is not r256
        assert r128.lib["lanes"] == 4
        assert r256.lib["lanes"] == 8
        r128.get(4, 4)
        assert (4, 4) in r128
        assert (4, 4) not in r256

    def test_rvv_run_never_populates_neon_default(self, clean_registries):
        reg.registry_for_machine(RVV_EDGE_VLEN128).get(1, 4)
        # the Neon default registry was neither created nor populated
        assert reg._default_registry is None

    def test_neon_machine_reuses_the_default_registry(self, clean_registries):
        r = reg.registry_for_machine(CARMEL)
        assert r is reg.default_registry()
        assert r.lib["lanes"] == 4

    def test_repeated_lookups_are_memoized(self, clean_registries):
        r1 = reg.registry_for_machine(RVV_SERVER_VLEN256)
        r2 = reg.registry_for_machine(RVV_SERVER_VLEN256)
        assert r1 is r2
        assert reg._machine_registries == {"rvv256": r1}


@pytest.fixture()
def generations(monkeypatch):
    """An empty kernel store whose misses are counted.

    Counts ``generate_microkernel`` calls per ``(mr, nr, id(lib),
    variant)``, the way the workflow benchmark wraps it by name.
    """
    calls = Counter()
    real = gen.generate_microkernel

    def counted(mr, nr, lib=None, variant="auto", base=None):
        calls[(mr, nr, id(lib), variant)] += 1
        return real(mr, nr, lib, variant=variant, base=base)

    monkeypatch.setattr(gen, "generate_microkernel", counted)
    monkeypatch.setattr(gen, "_KERNEL_STORE", {})
    return calls


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

    def test_registry_vla_parts_and_verifier_share_kernels(
        self, generations, clean_registries
    ):
        from repro.analysis.verifier import verify_tile
        from repro.eval.harness import EvalContext
        from repro.isa.targets import target

        body = reg.registry_for_machine(RVV_EDGE_VLEN128).get(4, 4)
        plan = gen.generate_vla_microkernel(
            5, 4, target("rvv128").lib_factory
        )
        again = gen.generate_vla_microkernel(
            5, 4, target("rvv128").lib_factory
        )
        assert plan.parts[0][1] is body
        assert all(a is b for (_, a), (_, b) in zip(again.parts, plan.parts))
        built = sum(generations.values())
        assert built == 2  # the 4-row body and the 1-row vsetvl tail
        assert verify_tile("rvv128", 5, 4).ok
        assert verify_tile("rvv128", 4, 4).ok
        EvalContext(machine=RVV_EDGE_VLEN128).vla_part_traces(5, 4)
        assert sum(generations.values()) == built

    def test_cold_eval_builds_each_kernel_once(
        self, generations, clean_registries, monkeypatch, tmp_path
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
