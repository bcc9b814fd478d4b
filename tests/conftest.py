"""Shared fixtures: canonical procedures used across the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.core import proc
from repro.isa.targets import target


@pytest.fixture(scope="session")
def registry():
    """The Neon ISA target; its kernels come from the process-wide store
    (generation is the slow part)."""
    return target("neon")


@pytest.fixture(scope="session")
def uk8x12(registry):
    return registry.get(8, 12)


@pytest.fixture(scope="session")
def matmul_ref():
    from repro.ukernel.generator import make_reference_kernel

    return make_reference_kernel()


@pytest.fixture()
def copy_proc():
    @proc
    def copy2d(N: size, M: size, dst: f32[N, M] @ DRAM, src: f32[N, M] @ DRAM):
        for i in seq(0, N):
            for j in seq(0, M):
                dst[i, j] = src[i, j]

    return copy2d
