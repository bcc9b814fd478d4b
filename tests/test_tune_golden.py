"""Byte-level pin of the tuner's winner artifact.

One run of::

    python -m repro.tune --machines all \\
        --shapes 6x50x64,3x2x32,100x2x64,49x500x128,11x14x96 \\
        --threads 1,4 --workers 1 --no-cache --out OUT

writes the winner artifact ``OUT``; its sha256 must match
``tests/data/tune_golden.json``.  The shapes are chosen so that every
way a candidate tile is proposed shows up among the winners: family
tiles, the RVV clamped tail variants (6x12, 3x2, 8x2, 8x14 run as
full-lane parts plus a reduced-``vsetvl`` tail) and the shape-respecting
fallbacks of planes smaller than every family tile.  A refactor of the
candidate space, the tile cover or the cost model must leave the digest
unchanged.  Regenerate the pin only when a change to the tuned winners
or their modelled timings is intended::

    PYTHONPATH=src python tests/test_tune_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "data" / "tune_golden.json"
SRC = Path(__file__).resolve().parent.parent / "src"

SHAPES = "6x50x64,3x2x32,100x2x64,49x500x128,11x14x96"
THREADS = "1,4"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def tune_digest() -> str:
    """Run the tune CLI in a fresh directory; sha256 of its artifact."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "tune_results.json"
        subprocess.run(
            [
                sys.executable, "-m", "repro.tune",
                "--machines", "all",
                "--shapes", SHAPES,
                "--threads", THREADS,
                "--workers", "1",
                "--no-cache",
                "--out", str(out),
            ],
            check=True,
            cwd=tmp,
            env=_env(),
            stdout=subprocess.DEVNULL,
        )
        return hashlib.sha256(out.read_bytes()).hexdigest()


def test_tune_artifact_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())["artifact"]
    assert tune_digest() == golden


def _write_golden() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "about": "sha256 of the repro.tune winner artifact; see "
                "tests/test_tune_golden.py",
                "artifact": tune_digest(),
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_tune_golden.py --write")
    _write_golden()
