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
from repro.isa.targets import ISA_TARGETS, target
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


def _pointer_params(code: str) -> dict:
    """``{name: const-qualified}`` for the pointer parameters of the one
    function ``code`` defines."""
    sig = next(line for line in code.splitlines() if line.startswith("void "))
    params = sig[sig.index("(") + 1 : sig.rindex(")")].split(", ")
    return {
        p.rsplit(" ", 1)[1]: p.startswith("const ") for p in params if "*" in p
    }


def _tile_kernels(t):
    tiles = list(t.family)
    if t.lib_factory is not None:
        lanes = t.lib["lanes"]
        widths = sorted({nr for _, nr in t.family})
        tiles += [(mr, nr) for nr in widths for mr in range(1, 2 * lanes + 1)]
    for mr, nr in tiles:
        for _, kernel in t.tile_parts(mr, nr):
            yield kernel


@pytest.mark.parametrize("isa", sorted(ISA_TARGETS))
def test_only_the_output_tile_is_a_mutable_pointer(isa):
    """A micro-kernel writes C and nothing else it is passed, so every
    other pointer operand (the packed panels) is emitted ``const``."""
    for kernel in _tile_kernels(target(isa)):
        params = _pointer_params(kernel.proc.c_code())
        assert {"Ac", "Bc", "C"} <= set(params), kernel.name
        mutable = {name for name, const in params.items() if not const}
        assert mutable == {"C"}, kernel.name


@pytest.mark.parametrize(
    "build, inputs",
    [
        pytest.param(
            lambda: generate_nopack_microkernel(8, 12), {"A", "B"}, id="nopack"
        ),
        pytest.param(
            lambda: generate_scaled_microkernel(8, 12),
            {"alpha", "Ac", "Bc", "beta"},
            id="scaled",
        ),
    ],
)
def test_extended_kernels_qualify_their_inputs_const(build, inputs):
    params = _pointer_params(build().proc.c_code())
    assert {name for name, const in params.items() if const} == inputs
    assert {name for name, const in params.items() if not const} == {"C"}
