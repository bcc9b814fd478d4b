"""End-to-end convolution tests: IM2ROW + generated kernels == direct conv."""

from __future__ import annotations

import numpy as np
import pytest

from repro.blis.gemm import BlisGemm
from repro.sim.memory import TileParams
from repro.workloads.conv import ConvSpec, conv_reference
from repro.workloads.conv_driver import conv2d_gemm


@pytest.fixture(scope="module")
def engine(registry):
    return BlisGemm(
        {shape: registry.get(*shape) for shape in registry.family},
        tiles=TileParams(mc=16, kc=8, nc=24, mr=8, nr=12),
    )


class TestConvByGemm:
    def _check(self, spec, engine, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.random((spec.height, spec.width, spec.cin), dtype=np.float32)
        f = rng.random(
            (spec.kh, spec.kw, spec.cin, spec.cout), dtype=np.float32
        )
        got = conv2d_gemm(x, f, spec, engine=engine)
        want = conv_reference(x, f, spec)
        np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-4)

    def test_1x1_conv(self, engine):
        self._check(ConvSpec(6, 6, 8, 4, 1, 1), engine)

    def test_3x3_padded(self, engine):
        self._check(ConvSpec(7, 5, 3, 6, 3, 3, 1, 1), engine)

    def test_strided_7x7(self, engine):
        """The ResNet stem shape in miniature: 7x7 stride-2 on 3 channels."""
        self._check(ConvSpec(16, 16, 3, 8, 7, 7, 2, 3), engine)

    def test_gemm_path_equals_numpy_path(self, engine):
        spec = ConvSpec(5, 5, 4, 4, 3, 3, 1, 1)
        rng = np.random.default_rng(1)
        x = rng.random((5, 5, 4), dtype=np.float32)
        f = rng.random((3, 3, 4, 4), dtype=np.float32)
        via_engine = conv2d_gemm(x, f, spec, engine=engine)
        via_numpy = conv2d_gemm(x, f, spec, engine=None)
        np.testing.assert_allclose(via_engine, via_numpy, rtol=1e-4, atol=1e-5)

    def test_bad_filter_shape_rejected(self, engine):
        spec = ConvSpec(5, 5, 4, 4, 3, 3)
        with pytest.raises(ValueError, match="filters"):
            conv2d_gemm(
                np.zeros((5, 5, 4), dtype=np.float32),
                np.zeros((3, 3, 4, 5), dtype=np.float32),
                spec,
            )
