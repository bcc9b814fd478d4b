"""Byte-level pin of the serving outputs.

Each case runs one serving configuration end to end and hashes
(sha256) the files it writes; the digests must match
``tests/data/serve_golden.json``.  The cases are:

* ``planner/obs-smoke``: the offline placement search of the CI
  observability smoke (carmel, 20 rps synthetic, 100 ms SLO) with
  ``--trace``/``--metrics``: report, metrics (JSON and Prometheus),
  Chrome trace and JSONL event log;
* ``evaluate/r2``: one :func:`repro.serve.evaluate_configuration` at
  two replicas with obs attached: report and metrics.  Its trace is
  not pinned, because its replica track ids follow the batch former's
  replica choice;
* ``live/ci``: the CI live run (carmel, MMPP 5:80 rps, 30 ms SLO, so
  the deadline gate sheds): report, trace and metrics;
* ``live/two-pools``: two pools of two replicas with ``--admission
  none`` under MMPP 2:30 rps, so one pool idles between bursts and
  the other backlogs: report, trace and metrics.

A refactor of the batcher or the live plane must leave all of them
unchanged.  Regenerate the pin only when a change to the serving
output is intended::

    PYTHONPATH=src python tests/test_serve_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro import obs as obslib
from repro.isa.machine import CARMEL
from repro.serve import (
    BatchPolicy,
    Placement,
    build_report,
    evaluate_configuration,
    save_report,
    synthetic_trace,
)
from repro.serve.__main__ import main as serve_main

GOLDEN_PATH = Path(__file__).parent / "data" / "serve_golden.json"


def _digests(out: Path, names: Dict[str, str]) -> Dict[str, str]:
    return {
        label: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for label, name in names.items()
    }


def _cli(out: Path, argv, report: str) -> Dict[str, str]:
    obs_args = [
        "--trace", str(out / "t.json"), "--metrics", str(out / "m.json")
    ]
    assert serve_main(argv + obs_args + ["-q"]) == 0
    return _digests(
        out,
        {
            "report": report,
            "metrics": "m.json",
            "prom": "m.prom",
            "trace": "t.json",
            "jsonl": "t.jsonl",
        },
    )


def _planner(out: Path) -> Dict[str, str]:
    return _cli(
        out,
        [str(out), "--machine", "carmel", "--arrivals", "synthetic",
         "--rate", "20", "--duration", "400", "--slo-p99", "100ms"],
        "serve_carmel_resnet50.json",
    )


def _evaluate_r2(out: Path) -> Dict[str, str]:
    obs = obslib.obs_from_cli(None, out / "m.json", virtual_time=True)
    trace = synthetic_trace(60.0, 1_000.0, seed=2)
    outcome = evaluate_configuration(
        trace,
        CARMEL,
        "resnet50",
        Placement(replicas=2, threads_per_replica=4),
        BatchPolicy(max_batch=4, max_wait_ms=2.0),
        obs=obs,
    )
    assert {b.replica for b in outcome.result.batches} == {0, 1}
    report = build_report(
        outcome,
        [outcome],
        machine_name="carmel",
        isa=CARMEL.isa,
        model="resnet50",
        trace_info={"kind": "synthetic", "requests": len(trace)},
        slo_p99_ms=100.0,
        use_tuned=False,
        machine=CARMEL,
    )
    save_report(report, out / "report.json")
    obs.write_outputs()
    return _digests(
        out, {"report": "report.json", "metrics": "m.json", "prom": "m.prom"}
    )


def _live_ci(out: Path) -> Dict[str, str]:
    return _cli(
        out,
        ["live", str(out), "--machine", "carmel", "--controller", "sim",
         "--arrivals", "mmpp:rates=5:80,dwell=300", "--duration", "2000",
         "--slo-p99", "30ms"],
        "live_carmel_sim.json",
    )


def _live_two_pools(out: Path) -> Dict[str, str]:
    return _cli(
        out,
        ["live", str(out), "--machine", "carmel", "--controller", "sim",
         "--pools", "resnet50=2x2,vgg16=2x2", "--admission", "none",
         "--arrivals", "mmpp:rates=2:30,dwell=1000", "--duration", "6000",
         "--max-batch", "4", "--slo-p99", "200ms"],
        "live_carmel_sim.json",
    )


CASES: Dict[str, Callable[[Path], Dict[str, str]]] = {
    "planner/obs-smoke": _planner,
    "evaluate/r2": _evaluate_r2,
    "live/ci": _live_ci,
    "live/two-pools": _live_two_pools,
}


def serve_digests(key: str) -> Dict[str, str]:
    """Run one case in a fresh directory; sha256 of each output."""
    with tempfile.TemporaryDirectory() as tmp:
        return CASES[key](Path(tmp))


@lru_cache(maxsize=None)
def _load_golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def test_golden_covers_every_case():
    assert sorted(_load_golden()) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_serving_outputs_match_golden(key):
    assert serve_digests(key) == _load_golden()[key]


def _write_golden() -> None:
    cases = {key: serve_digests(key) for key in sorted(CASES)}
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "about": "sha256 of the serving reports, traces and "
                "metrics; see tests/test_serve_golden.py",
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
        sys.exit("usage: test_serve_golden.py --write")
    _write_golden()
