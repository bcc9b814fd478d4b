"""End-to-end convolution through IM2ROW + the BLIS-like GEMM.

The functional composition of the paper's DL story: lower a convolution
layer with IM2ROW, run the resulting rectangular GEMM through the five-loop
algorithm with generated micro-kernels, and reshape back to the output
tensor.  ``tests/test_conv_driver.py`` uses it to show the *whole* path
computes real convolutions, not just that the dimensions match.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.blis.gemm import BlisGemm

from .conv import ConvSpec, im2row_gemm_dims, im2row_matrix


def conv2d_gemm(
    x: np.ndarray,
    filters: np.ndarray,
    spec: ConvSpec,
    engine: Optional[BlisGemm] = None,
) -> np.ndarray:
    """Convolve ``x`` (H, W, Cin) with ``filters`` (kh, kw, Cin, Cout).

    Lowers to a GEMM of shape (m, n, k) = IM2ROW dims and dispatches it to
    ``engine`` (a :class:`BlisGemm`); with no engine, numpy computes the
    product (useful for comparing the lowering itself).
    """
    m, n, k = im2row_gemm_dims(spec)
    if filters.shape != (spec.kh, spec.kw, spec.cin, spec.cout):
        raise ValueError(
            f"filters have shape {filters.shape}, spec wants "
            f"{(spec.kh, spec.kw, spec.cin, spec.cout)}"
        )
    rows = im2row_matrix(x, spec)  # (m, k)
    weight = np.ascontiguousarray(
        filters.reshape(k, n).astype(x.dtype)
    )
    out = np.zeros((m, n), dtype=x.dtype)
    if engine is None:
        out += rows @ weight
    else:
        engine(rows, weight, out)
    oh, ow = spec.out_shape()
    return out.reshape(oh, ow, spec.cout)
