"""Byte-level pin of the kernel verifier's report.

The stdout of ``python -m repro.analysis verify --isa all`` (one ``ok
<isa> <report>`` line per verified kernel or VLA plan, then the
summary) must hash (sha256) to ``tests/data/verify_golden.json``.  The
report names tell the two kinds of tile apart: ``uk_*`` is one stored
kernel, ``vla_*`` a VLA tile verified as a plan of parts.  A refactor of
how targets turn tiles into kernels must leave the digest unchanged.
Regenerate the pin only when a change to the verified set is intended::

    PYTHONPATH=src python tests/test_verify_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "data" / "verify_golden.json"
SRC = Path(__file__).resolve().parent.parent / "src"


def verify_stdout() -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", "verify", "--isa", "all"],
        check=True,
        env=env,
        stdout=subprocess.PIPE,
    ).stdout


def test_verify_report_matches_golden():
    out = verify_stdout()
    assert out.rstrip().endswith(b"kernels verified across 5 target(s)")
    golden = json.loads(GOLDEN_PATH.read_text())["stdout"]
    assert hashlib.sha256(out).hexdigest() == golden


def _write_golden() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "about": "sha256 of the stdout of `python -m "
                "repro.analysis verify --isa all`; see "
                "tests/test_verify_golden.py",
                "stdout": hashlib.sha256(verify_stdout()).hexdigest(),
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_verify_golden.py --write")
    _write_golden()
