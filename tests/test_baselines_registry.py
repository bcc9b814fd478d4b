"""Tests for the baseline kernel models and the Neon target's kernels."""

from __future__ import annotations

import pytest

from repro.baselines.blis_asm import blis_kernel_model
from repro.baselines.neon_handwritten import neon_kernel_model
from repro.isa.machine import CARMEL
from repro.isa.targets import target
from repro.sim.pipeline import PipelineModel, trace_from_kernel
from repro.sim.timing import solo_kernel_gflops
from repro.ukernel.registry import select_kernel_for

NEON_FAMILY = target("neon").family


class TestBaselineModels:
    @pytest.fixture(scope="class")
    def traces(self, registry):
        kernel = registry.get(8, 12)
        return {
            "neon": neon_kernel_model(kernel=kernel),
            "blis": blis_kernel_model(kernel=kernel),
            "exo": trace_from_kernel(kernel),
        }

    def test_neon_carries_intrinsic_overhead(self, traces):
        assert len(traces["neon"].ops) == len(traces["exo"].ops) + 2

    def test_blis_matches_generated_stream(self, traces):
        """Figure 12's observation: the generated k-loop equals the BLIS
        assembly instruction for instruction."""
        assert len(traces["blis"].ops) == len(traces["exo"].ops)
        assert traces["blis"].counts() == traces["exo"].counts()

    def test_monolithic_kernels_pay_edge_logic(self, traces):
        assert traces["blis"].extra_call_cycles > 0
        assert traces["neon"].extra_call_cycles > 0
        assert traces["exo"].extra_call_cycles == 0

    def test_solo_ordering_neon_blis_exo(self, traces):
        """The paper's Figure 13 at 8x12: NEON < BLIS <= EXO."""
        neon = solo_kernel_gflops(traces["neon"], 8, 12)
        blis = solo_kernel_gflops(traces["blis"], 8, 12)
        exo = solo_kernel_gflops(traces["exo"], 8, 12, call_overhead=10.0)
        assert neon < blis <= exo

    def test_neon_penalty_is_single_digit_percent(self, traces):
        pm = PipelineModel()
        neon = pm.steady_cycles_per_iter(traces["neon"])
        blis = pm.steady_cycles_per_iter(traces["blis"])
        assert 1.0 < neon / blis < 1.12


class TestRegistry:
    def test_memoization(self):
        k1 = target("neon").get(4, 4)
        k2 = target("neon").get(4, 4)
        assert k1 is k2

    def test_family_contains_paper_kernels(self, registry):
        family = {s: registry.get(*s) for s in registry.family}
        for shape in [(8, 12), (8, 4), (4, 4), (4, 8), (4, 12), (1, 8), (1, 12)]:
            assert shape in family

    def test_default_family_closed_under_combinations(self):
        heights = {s[0] for s in NEON_FAMILY}
        widths = {s[1] for s in NEON_FAMILY}
        for h in heights:
            for w in widths:
                assert (h, w) in NEON_FAMILY

    def test_select_kernel_returns_candidate(self):
        shape, breakdown = select_kernel_for(512, 512, 512, machine=CARMEL)
        assert shape in NEON_FAMILY
        assert breakdown.total_cycles > 0

    def test_select_kernel_small_problem(self):
        shape, _ = select_kernel_for(4, 8, 64, machine=CARMEL)
        assert shape[0] <= 4 and shape[1] <= 8
