"""Byte-level pin of the eval CLI's figure files.

Each case runs ``python -m repro.eval OUT --isa ISA --threads N`` in a
fresh directory and hashes (sha256) every file it writes; the digests
must match ``tests/data/eval_golden.json``.  The cases are the four
runs of the perfbench ``eval-figures`` workload: ``neon --threads 8``
(figures 13-18 with the hand-written baselines, plus the threaded
sweeps), ``avx512 --threads 16``, ``rvv128 --threads 4`` and the
2-socket ``numa2s --threads 32``.  The wall-time line of the neon
``SUMMARY.txt`` ("regenerated in ...s") is dropped before hashing.
Each run gets a fresh tune cache (``REPRO_TUNECACHE``), so the hit and
miss counts of its ``tune_<isa>.json`` are those of a cold cache.

A refactor of the cost model or the figure harness must leave every
digest unchanged.  Regenerate the pin only when a change to the
modelled figures is intended::

    PYTHONPATH=src python tests/test_eval_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Dict

import pytest

from repro.eval.__main__ import main as eval_main

GOLDEN_PATH = Path(__file__).parent / "data" / "eval_golden.json"

#: case key -> (isa, --threads)
CASES: Dict[str, tuple] = {
    "neon/t8": ("neon", 8),
    "avx512/t16": ("avx512", 16),
    "rvv128/t4": ("rvv128", 4),
    "numa2s/t32": ("numa2s", 32),
}

#: prefix of the one line that carries the run's wall time
WALL_TIME_LINE = b"regenerated in "


def _digest(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(
        line for line in lines if not line.startswith(WALL_TIME_LINE)
    )
    return hashlib.sha256(kept).hexdigest()


def eval_digests(key: str) -> Dict[str, str]:
    """Run one case in a fresh directory; sha256 of each file written."""
    isa, threads = CASES[key]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "eval"
        previous = os.environ.get("REPRO_TUNECACHE")
        os.environ["REPRO_TUNECACHE"] = str(Path(tmp) / "tunecache")
        try:
            code = eval_main(
                [str(out), "--isa", isa, "--threads", str(threads), "-q"]
            )
        finally:
            if previous is None:
                del os.environ["REPRO_TUNECACHE"]
            else:
                os.environ["REPRO_TUNECACHE"] = previous
        assert code == 0
        return {
            path.name: _digest(path)
            for path in sorted(out.iterdir())
            if path.is_file()
        }


@lru_cache(maxsize=None)
def _load_golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def test_golden_covers_every_case():
    assert sorted(_load_golden()) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_eval_outputs_match_golden(key):
    assert eval_digests(key) == _load_golden()[key]


def _write_golden() -> None:
    cases = {key: eval_digests(key) for key in sorted(CASES)}
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "about": "sha256 of every file the eval CLI writes, the "
                "SUMMARY wall-time line dropped; see "
                "tests/test_eval_golden.py",
                "cases": cases,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_eval_golden.py --write")
    _write_golden()
