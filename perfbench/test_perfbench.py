"""Self-test of the workflow benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q

The workload tests run ``run.py --trace 1`` once per workload (three
set-up-only, two untraced and one traced fresh-interpreter runs each,
about two minutes in all) and check that every layer the workload
should exercise reports work, that the layers it should bypass read
zero, and that all runs gave identical modelled figures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

#: workload -> per-layer metrics that must read non-zero
FIRES = {
    "tune-cold": (
        "ukernel.kernels", "ukernel.generate_s",
        "analysis.tiles", "analysis.verify_s",
        "sim.batches", "sim.batch_rows", "sim.rows_per_batch",
        "sim.price_s", "sim.partition_calls", "sim.partition_s",
        "tune.jobs", "tune.jobs_cached", "tune.cache_hit_ratio",
        "tune.cache_puts", "tune.cache_put_s", "tune.cache_get_s",
        "tune.evaluate_s", "tune.sweep_s",
    ),
    "serve-plan": (
        "ukernel.kernels", "ukernel.generate_s",
        "sim.batches", "sim.price_s", "sim.partition_calls",
        "sim.partition_s",
        "serve.traffic.requests", "serve.traffic.gen_s",
        "serve.executor.prewarm_s", "serve.executor.batch_time_calls",
        "serve.batcher.simulate_s", "serve.batcher.requests",
        "serve.batcher.batches",
        "serve.placement.configs", "serve.placement.evaluate_s",
    ),
    "serve-live": (
        "ukernel.kernels", "ukernel.generate_s",
        "sim.batches", "sim.price_s",
        "serve.traffic.requests", "serve.traffic.gen_s",
        "serve.executor.prewarm_s", "serve.executor.batch_time_calls",
        "serve.plane.submits", "serve.plane.submit_s",
        "serve.plane.loop_s", "serve.plane.batches",
        "serve.plane.mean_batch", "serve.plane.queue_wait_ms_p50",
        "serve.plane.queue_wait_ms_p99", "serve.plane.shed",
    ),
    "eval-figures": (
        "ukernel.kernels", "ukernel.generate_s",
        "sim.serial_model_calls", "sim.serial_model_s",
        "sim.partition_calls", "sim.price_s",
        "eval.figures", "eval.figure_s", "eval.breakdowns",
    ),
}

#: workload -> per-layer metrics that must read zero over the whole run
ZERO = {
    "tune-cold": ("analysis.rejected", "eval.breakdowns",
                  "serve.plane.submits", "serve.batcher.requests"),
    "serve-plan": tuple(m for m in spans.LAYER_METRICS
                        if m.startswith(("serve.plane.", "tune.",
                                         "analysis.", "eval."))),
    "serve-live": tuple(m for m in spans.LAYER_METRICS
                        if m.startswith(("serve.batcher.", "tune.",
                                         "analysis.", "eval.",
                                         "serve.placement."))),
    "eval-figures": ("serve.plane.submits", "serve.batcher.requests"),
}


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(FIRES))
def test_traced_run_exercises_and_bypasses_layers(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    record = json.loads(lines[-2])
    assert final["correct"] and final["failed"] == 0
    # two untraced runs and one traced, whose modelled figures run.py
    # compared bit for bit (a mismatch is a failure)
    assert record["runs"] == 2 and record["traced_runs"] == 1
    assert set(final["metrics"]) == set(spans.LAYER_METRICS)
    values = {k: v["value"] for k, v in final["metrics"].items()}
    silent = [m for m in FIRES[workload] if not values[m] > 0]
    assert not silent, f"layers that never fired: {silent}"
    busy = [m for m in ZERO[workload] if values[m] != 0]
    assert not busy, f"layers predicted bypassed did work: {busy}"
    # nothing the timed section should bypass ran inside it
    assert values["trace.bypass_calls"] == 0
    for key in ("cpu", "nproc", "python", "numpy", "gcc", "git_commit"):
        assert key in record["host"]
    assert record["workload"] == workload and record["seed"] == 3


def test_summary_flags_modelled_figures_that_differ():
    class Args:
        workload, seed, seconds, trace = "serve-live", 1, 1.0, 0

    def result(p99):
        return {
            "attempted": 1, "failures": [], "traced": False,
            "setup_s": 1.0, "setup_probe_s": 1e-3, "setup_steal_s": 0.0,
            "run_s": 2.0, "probe_s": 1e-3, "steal_s": 0.0,
            "peak_rss_mb": 50.0,
            "figures": {"replay_requests_per_s": 5.0,
                        "model_live_p99_ms": p99},
        }

    _, same = run.summarize(Args, [result(1.5), result(1.5)])
    assert same["correct"]
    assert set(same["metrics"]) == set(run.END_TO_END)
    _, differ = run.summarize(Args, [result(1.5), result(1.6)])
    assert not differ["correct"] and differ["failed"] == 1


def test_probe_time_trims_and_keeps_to_its_window():
    # ten samples in the window, one of them stretched; the samples
    # before the window do not count
    before = [(i / 10, 2e-3) for i in range(5)]
    inside = [(1.0 + i / 10, 1e-3) for i in range(9)] + [(1.95, 9.0)]
    assert run.probe_time(before + inside, (1.0, 2.0)) == pytest.approx(
        1e-3
    )
    # no sample in the window: fall back to all of them
    assert 1e-3 < run.probe_time(before + inside, (4.0, 5.0)) < 2e-3


def test_stolen_counts_steal_inside_the_window():
    marks = [(0.0, 5.0), (1.0, 5.5), (2.0, 6.0), (3.0, 7.5)]
    assert run.stolen(marks, (1.0, 2.5)) == pytest.approx(0.5)
    assert run.stolen(marks, (0.5, 3.0)) == pytest.approx(2.5)
    assert run.stolen([], (0.0, 1.0)) == 0.0
    assert run.read_steal(min(os.sched_getaffinity(0))) is not None


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    inner = rec.wrap(lambda: time.sleep(0.02), "inner")
    outer = rec.wrap(lambda: (time.sleep(0.01), inner()), "outer")
    outer()
    selfs = rec.self_times()
    assert 0.015 < selfs["inner"] < 0.2
    assert 0.005 < selfs["outer"] < selfs["inner"]
    assert [s[3] for s in rec.spans] == [-1, 0]


def test_install_patches_and_restores_bindings():
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.serve import placement

    original = placement.simulate_serving
    uninstall = spans.install(spans.Recorder())
    try:
        assert placement.simulate_serving is not original
    finally:
        uninstall()
    assert placement.simulate_serving is original


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-plan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
