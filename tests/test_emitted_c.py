"""The emitted C is a self-contained translation unit.

The AVX-512 kernels are compiled (never run) with the host gcc, so the
check works on any x86 toolchain that accepts ``-mavx512f``; it skips
with a reason where gcc or the flag is unavailable.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

from repro.isa.avx512 import AVX512_F32_LIB
from repro.isa.targets import target
from repro.ukernel.extended import (
    generate_nopack_microkernel,
    generate_scaled_microkernel,
)
from repro.ukernel.generator import generate_microkernel

GCC_FLAGS = ["-std=c99", "-O2", "-mavx512f", "-c"]


def _compile(tmp_path: Path, code: str) -> subprocess.CompletedProcess:
    src = tmp_path / "kernel.c"
    src.write_text(code)
    return subprocess.run(
        ["gcc", *GCC_FLAGS, str(src), "-o", str(tmp_path / "kernel.o")],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def avx512_gcc(tmp_path_factory):
    if shutil.which("gcc") is None:
        pytest.skip("gcc is not installed")
    probe = _compile(
        tmp_path_factory.mktemp("probe"),
        "#include <immintrin.h>\n"
        "__m512 f(__m512 a) { return _mm512_add_ps(a, a); }\n",
    )
    if probe.returncode != 0:
        pytest.skip(f"gcc rejects -mavx512f: {probe.stderr.strip()}")


def _avx512_kernels():
    cases = [
        pytest.param(
            lambda mr=mr, nr=nr: generate_microkernel(mr, nr, AVX512_F32_LIB),
            id=f"family-{mr}x{nr}",
        )
        for mr, nr in target("avx512").family
    ]
    cases.append(
        pytest.param(
            lambda: generate_nopack_microkernel(3, 16, AVX512_F32_LIB),
            id="nopack-3x16",
        )
    )
    return cases


@pytest.mark.parametrize("build", _avx512_kernels())
def test_avx512_kernel_compiles(avx512_gcc, tmp_path, build):
    result = _compile(tmp_path, build().proc.c_code())
    assert result.returncode == 0, result.stderr


def test_stdint_included_once():
    code = generate_microkernel(16, 16, AVX512_F32_LIB).proc.c_code()
    assert code.count("#include <stdint.h>") == 1
    assert code.index("#include <stdint.h>") < code.index("int_fast32_t")


def test_scaled_kernel_declares_element_typed_temporaries():
    code = generate_scaled_microkernel(8, 12).proc.c_code()
    assert "float Cb[12 * 8];" in code
    assert "float Ba[KC * 12];" in code
