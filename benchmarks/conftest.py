"""Shared benchmark fixtures.

Each ``bench_fig*`` module regenerates one figure of the paper's evaluation
section.  The benchmarked callable is the harness that produces the figure's
data series; shape assertions inside each benchmark guarantee the regenerated
figure tells the paper's story (who wins, by roughly what factor).

Run:  pytest benchmarks/ --benchmark-only

Every benchmark run additionally writes one machine-readable
``BENCH_<name>.json`` per bench module (default ``out/bench/``,
override with ``BENCH_JSON_DIR``): a list of records with ``machine``,
``isa``, ``threads``, ``metric``, ``value`` — the perf trajectory the
CI bench job archives.  Benchmarks tag their records through
``benchmark.extra_info`` (same keys); untagged records default to the
paper's serial Carmel/Neon configuration, and ``value`` defaults to the
benchmark's min wall seconds.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

# the scalar oracles (tests/parallel_oracle.py): the throughput
# reference and the scalar memory model
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.eval.harness import EvalContext, default_context  # noqa: E402


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "requires_isa(name): skip the benchmark when the named ISA backend "
        "is not in the target registry",
    )


def pytest_collection_modifyitems(config, items):
    """Skip benchmarks whose ISA backend is not registered.

    Downstream forks can trim `repro.isa.targets` to the backends they
    care about; bench collection then skips cleanly instead of erroring.
    """
    from repro.isa.targets import ISA_TARGETS

    for item in items:
        for mark in item.iter_markers(name="requires_isa"):
            missing = [n for n in mark.args if n not in ISA_TARGETS]
            if missing:
                item.add_marker(
                    pytest.mark.skip(
                        reason=f"ISA backend(s) not registered: {missing}"
                    )
                )


@pytest.fixture(scope="session")
def ctx() -> EvalContext:
    """Shared evaluation context; kernel generation and pipeline timing are
    memoized so benchmarks measure the harness, not repeated setup."""
    context = default_context()
    # warm the kernel store and timing caches once
    for shape in context.target.family:
        context.target.get(*shape)
    return context


def bench_record(bench) -> dict:
    """One BENCH_*.json record from a pytest-benchmark result object."""
    extra = dict(getattr(bench, "extra_info", None) or {})
    value = extra.get("value")
    metric = extra.get("metric", "min_seconds")
    if value is None:
        stats = getattr(bench, "stats", None)
        stats = getattr(stats, "stats", stats)  # Metadata wraps Stats
        value = getattr(stats, "min", None)
        metric = "min_seconds"
    return {
        "name": getattr(bench, "name", "?"),
        "machine": str(extra.get("machine", "carmel")),
        "isa": str(extra.get("isa", "neon")),
        "threads": int(extra.get("threads", 1)),
        "metric": str(metric),
        "value": value,
    }


def pytest_sessionfinish(session, exitstatus):
    """Write BENCH_<name>.json per bench module from this run's results."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    benches = getattr(bench_session, "benchmarks", None)
    if not benches:
        return
    outdir = Path(os.environ.get("BENCH_JSON_DIR", "out/bench"))
    by_module: dict = {}
    for bench in benches:
        modpath = (getattr(bench, "fullname", "") or "?").split("::", 1)[0]
        module = Path(modpath).stem
        name = module.removeprefix("bench_")
        record = bench_record(bench)
        if record["value"] is None:
            continue
        by_module.setdefault(name, []).append(record)
    if not by_module:
        return
    outdir.mkdir(parents=True, exist_ok=True)
    for name, records in sorted(by_module.items()):
        records.sort(key=lambda r: r["name"])
        path = outdir / f"BENCH_{name}.json"
        path.write_text(
            json.dumps(records, indent=1, sort_keys=True) + "\n"
        )
        print(f"bench results: wrote {path}")
