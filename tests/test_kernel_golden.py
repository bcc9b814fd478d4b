"""Byte-level pin of the generated micro-kernels.

Every case below hashes (sha256) the printed IR of each ``steps`` entry,
the final ``str(kernel.proc)`` and its ``c_code()``; the digests must
match ``tests/data/kernel_golden.json``.  The cases cover every register
tile of every registered ISA target's family, the RVV
vector-length-agnostic parts for ``mr = 1 .. 2 * lanes``, the f16/i32
Neon tiles, explicit ``variant=`` requests, and the non-packed and
scaled kernels.  A scheduling refactor must leave all of them unchanged.

Regenerate the pin only when a change to the generated code is intended::

    PYTHONPATH=src python tests/test_kernel_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.isa.avx512 import AVX512_F32_LIB
from repro.isa.neon import NEON_F32_LIB
from repro.isa.neon_int import NEON_I32_LIB
from repro.isa.neon_fp16 import NEON_F16_LIB
from repro.isa.rvv import RVV128_F32_LIB
from repro.isa.targets import ISA_TARGETS
from repro.ukernel.extended import (
    generate_nopack_microkernel,
    generate_scaled_microkernel,
)
from repro.ukernel.generator import (
    GeneratedKernel,
    generate_microkernel,
    generate_vla_microkernel,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "kernel_golden.json"

Parts = List[Tuple[int, GeneratedKernel]]


def _one(build: Callable[[], GeneratedKernel]) -> Callable[[], Parts]:
    return lambda: [(0, build())]


def _cases() -> Dict[str, Callable[[], Parts]]:
    cases: Dict[str, Callable[[], Parts]] = {}
    for name, t in sorted(ISA_TARGETS.items()):
        for mr, nr in t.family:
            cases[f"family/{name}/{mr}x{nr}"] = _one(
                lambda t=t, mr=mr, nr=nr: generate_microkernel(mr, nr, t.lib)
            )
        if t.lib_factory is None:
            continue
        lanes = t.lib["lanes"]
        for nr in sorted({w for _, w in t.family}):
            for mr in range(1, 2 * lanes + 1):
                cases[f"vla/{name}/{mr}x{nr}"] = (
                    lambda t=t, mr=mr, nr=nr: generate_vla_microkernel(
                        mr, nr, t.lib_factory
                    )
                )
    for label, lib, mr, nr in (
        ("f16", NEON_F16_LIB, 8, 16),
        ("i32", NEON_I32_LIB, 8, 12),
        ("i32", NEON_I32_LIB, 4, 4),
        ("i32", NEON_I32_LIB, 4, 8),
        ("i32", NEON_I32_LIB, 1, 8),
    ):
        cases[f"dtype/neon_{label}/{mr}x{nr}"] = _one(
            lambda lib=lib, mr=mr, nr=nr: generate_microkernel(mr, nr, lib)
        )
    for label, lib, mr, nr, variant in (
        ("neon", NEON_F32_LIB, 8, 12, "packed"),
        ("neon", NEON_F32_LIB, 8, 12, "broadcast"),
        ("neon", NEON_F32_LIB, 8, 6, "broadcast"),
        ("neon", NEON_F32_LIB, 4, 4, "broadcast"),
        ("avx512", AVX512_F32_LIB, 16, 16, "broadcast"),
        ("rvv128", RVV128_F32_LIB, 8, 12, "broadcast"),
    ):
        cases[f"variant/{label}/{mr}x{nr}/{variant}"] = _one(
            lambda lib=lib, mr=mr, nr=nr, variant=variant: (
                generate_microkernel(mr, nr, lib, variant=variant)
            )
        )
    for label, lib, mr, nr in (
        ("neon", NEON_F32_LIB, 5, 12),
        ("neon", NEON_F32_LIB, 2, 8),
        ("avx512", AVX512_F32_LIB, 3, 16),
    ):
        cases[f"nopack/{label}/{mr}x{nr}"] = _one(
            lambda lib=lib, mr=mr, nr=nr: generate_nopack_microkernel(
                mr, nr, lib
            )
        )
    for mr, nr in ((8, 12), (4, 4)):
        cases[f"scaled/neon/{mr}x{nr}"] = _one(
            lambda mr=mr, nr=nr: generate_scaled_microkernel(mr, nr)
        )
    return cases


CASES = _cases()


def kernel_digest(parts: Parts) -> str:
    """sha256 over every part's steps, final proc and emitted C."""
    h = hashlib.sha256()
    for offset, kernel in parts:
        h.update(f"part {offset}\n".encode())
        for name, step in kernel.steps.items():
            h.update(f"step {name}\n{step}\n".encode())
        h.update(f"proc\n{kernel.proc}\n".encode())
        h.update(f"c\n{kernel.proc.c_code()}\n".encode())
    return h.hexdigest()


@lru_cache(maxsize=None)
def _load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["kernels"]


def test_golden_covers_every_case():
    assert sorted(_load_golden()) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_generated_kernel_matches_golden(key):
    assert kernel_digest(CASES[key]()) == _load_golden()[key]


def _write_golden() -> None:
    kernels = {key: kernel_digest(CASES[key]()) for key in sorted(CASES)}
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "about": "sha256 of every generated kernel's steps, proc "
                "and C; see tests/test_kernel_golden.py",
                "kernels": kernels,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(kernels)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_kernel_golden.py --write")
    _write_golden()
