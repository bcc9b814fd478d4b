"""Workflow benchmark: tune-cold, serve-plan, serve-live, eval-figures.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 25 \\
        --trace 0

Each measured run is a fresh interpreter (``child.py``), because every
CLI call pays for kernel generation and for filling the in-process
memos.  A few set-up-only runs come first, then measured runs one
after another for about ``--seconds`` (at least two untraced; with
``--trace 1`` also at least one traced, alternating).  Each metric is the
median over the runs.  Wall times are scaled by a speed probe that this
process runs on the same core while each run works.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of the
traced runs.  The line before it is the full result record, with the
host context.  The exit status is non-zero when any correctness check
fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

#: the whole command must end within this many seconds
DEADLINE_S = 170.0

#: the speed probe: object steps per pass, and the period of its passes
PROBE_OBJECTS = 800
PROBE_EVERY_S = 0.025
#: a probe pass's time on the reference host: ``setup_s`` and
#: ``run_ref_s`` scale wall time by PROBE_REF_S / (probe time meanwhile)
PROBE_REF_S = 1e-3

#: cores this process may use, read before main() pins it to one
NPROC = len(os.sched_getaffinity(0))
#: units of the counters in /proc/stat, per second
CLK_TCK = os.sysconf("SC_CLK_TCK")

#: set-up-only runs before the measured ones: at least this many, and
#: for at least this share of --seconds
SETUP_RUNS_MIN = 3
SETUP_SHARE = 0.15
#: untraced measured runs at least, so that no median rests on one run
MEASURED_RUNS_MIN = 2

#: end-to-end metric -> unit, reported with --trace 0
END_TO_END = {
    "setup_s": "s",
    "run_ref_s": "ref_s",
    "peak_rss_mb": "MB",
}

#: unit of every metric in the result record
NAMED_UNITS = {
    **END_TO_END,
    "setup_wall_s": "s",
    "run_s": "s",
    "setup_probe_s": "s",
    "probe_s": "s",
    "setup_steal_s": "s",
    "steal_s": "s",
    "error_frac": "ratio",
    **workloads.UNITS,
}


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def at(self, x):
        return self.a + x * self.b


def probe_pass():
    """Time one pass of the speed probe: ``(start, seconds)``.

    The pass is typical interpreter work -- object creation, method
    calls, dict updates, a sort -- on data that stays in the caches, so
    its time does not depend on what the workload left there.  Fitted
    over runs of the workloads, their run time grew as the probe time to
    the power 0.8-1.1; a loop of integer adds tracked them too weakly
    (power 1.2-1.6).
    """
    start = time.perf_counter()
    seen, out = {}, []
    for i in range(PROBE_OBJECTS):
        point = _Point(i, i & 7)
        key = (i & 63, "k")
        seen[key] = seen.get(key, 0) + point.at(i)
        out.append(min(point.a, point.b))
    out.sort()
    return start, time.perf_counter() - start


def probe_time(samples, window):
    """Interquartile mean of the probe times taken in ``window``.

    A quarter of the samples at each end is dropped: a pass that waited
    for the measured process, which runs on the same core, to leave the
    kernel (process start, page faults) reads up to twice its time, and
    a set-up phase holds only about a dozen samples.
    """
    start, end = window
    inside = sorted(s for t, s in samples if start <= t <= end)
    inside = inside or sorted(s for _, s in samples)
    cut = len(inside) // 4
    return statistics.fmean(inside[cut:len(inside) - cut])


def read_steal(core):
    """Seconds the hypervisor has kept ``core`` from running, or None.

    The ``steal`` column of ``/proc/stat``; None where it is missing.
    """
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                if line.startswith(f"cpu{core} "):
                    return int(line.split()[8]) / CLK_TCK
    except (OSError, IndexError, ValueError):
        pass
    return None


def stolen(marks, window):
    """Steal time between the ``(time, steal)`` marks bounding ``window``."""
    def at(t):
        before = [steal for u, steal in marks if u <= t]
        return before[-1] if before else marks[0][1]

    return at(window[1]) - at(window[0]) if marks else 0.0


def host_context():
    """CPU, core count and tool versions, for every result record."""
    cpu, flags = "unknown", []
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and cpu == "unknown":
                cpu = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = sorted(
                    f for f in value.split() if f.startswith("avx512")
                )
    except OSError:
        pass

    def first_line(cmd):
        # a checkout need not be a git repository: never let git report
        # the commit of a repository above it
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(
                cmd, capture_output=True, text=True, timeout=10, cwd=ROOT,
                env=env,
            )
        except (OSError, subprocess.SubprocessError):
            return "unavailable"
        lines = done.stdout.splitlines()
        return lines[0].strip() if done.returncode == 0 and lines else (
            "unavailable"
        )

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "unavailable"
    return {
        "cpu": cpu,
        "avx512_flags": flags,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "gcc": first_line(["gcc", "--version"]),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
    }


def run_child(args, index, traced, work, deadline, setup_only=False):
    """One fresh-interpreter run; returns its result dict.

    While the child runs, this process runs the speed probe every
    ``PROBE_EVERY_S`` on the same core (see :func:`main`), and reads
    that core's steal time after each pass.  It records the probe time
    and the steal time of the child's set-up and of its timed section.
    """
    core = min(os.sched_getaffinity(0))
    tmp = work / "tmp" / f"{os.getpid()}-{index}"
    tmp.mkdir(parents=True, exist_ok=True)
    result_path = tmp / "result.json"
    chrome = work / "traces" / f"{args.workload}-seed{args.seed}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else [])
    )
    env.update(
        TMPDIR=str(tmp),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--tmp", str(tmp),
        "--result", str(result_path), "--chrome", str(chrome),
        "--setup-only", "1" if setup_only else "0",
    ]
    with open(tmp / "stderr.txt", "w+") as err:
        spawned = time.perf_counter()
        marks = [(spawned, read_steal(core))]
        proc = subprocess.Popen(
            cmd + ["--spawned", repr(spawned)], cwd=ROOT,
            env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        samples = []
        try:
            while proc.poll() is None and time.time() < deadline:
                samples.append(probe_pass())
                marks.append((time.perf_counter(), read_steal(core)))
                time.sleep(PROBE_EVERY_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        err.seek(0)
        stderr = err.read()[-2000:]
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        result = {
            "attempted": 1,
            "failures": [f"run exited {proc.returncode}: {stderr}"],
        }
    shutil.rmtree(tmp, ignore_errors=True)
    marks = [(t, steal) for t, steal in marks if steal is not None]
    if samples:
        for window, prefix in (("setup_window", "setup_"), ("window", "")):
            if window in result:
                result[prefix + "probe_s"] = probe_time(
                    samples, result[window]
                )
                result[prefix + "steal_s"] = stolen(marks, result[window])
    result["traced"] = traced
    return result


def median_of(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def summarize(args, results):
    """Aggregate the runs into (record, final line)."""
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    setups = [r for r in results
              if not r["traced"] and "setup_probe_s" in r]
    plain = [r for r in results
             if not r["traced"] and "run_s" in r and "probe_s" in r]
    traced = [r for r in results if r["traced"] and "layers" in r]
    measured = [r for r in results if "figures" in r]

    # the timing model is deterministic: every run must report the same
    # modelled figures, bit for bit
    figures = {}
    for name in workloads.UNITS:
        values = [r["figures"][name] for r in measured
                  if name in r["figures"]]
        if not values:
            continue
        if workloads.is_modelled(name):
            attempted += 1
            if any(v != values[0] for v in values):
                failures.append(f"{name} differs between runs: {values}")
            figures[name] = values[0]
        else:
            figures[name] = statistics.median(values)

    named = {}  # every named metric of the workload, for the record
    if plain:
        # wall times less steal, at the reference host speed, run by run
        named["setup_s"] = statistics.median(
            (r["setup_s"] - r["setup_steal_s"]) * PROBE_REF_S
            / r["setup_probe_s"]
            for r in setups
        )
        named["run_ref_s"] = statistics.median(
            (r["run_s"] - r["steal_s"]) * PROBE_REF_S / r["probe_s"]
            for r in plain
        )
        named["peak_rss_mb"] = median_of(plain, "peak_rss_mb")
        named["setup_wall_s"] = median_of(setups, "setup_s")
        named["run_s"] = median_of(plain, "run_s")
        named["setup_probe_s"] = median_of(setups, "setup_probe_s")
        named["setup_steal_s"] = median_of(setups, "setup_steal_s")
        named["steal_s"] = median_of(plain, "steal_s")
        named["probe_s"] = median_of(plain, "probe_s")
    named.update(figures)
    named["error_frac"] = len(failures) / attempted if attempted else 1.0

    metrics = {}
    if args.trace == 0 and plain:
        metrics = {
            name: {"value": named[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    elif args.trace == 1 and traced:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in spans.LAYER_METRICS
        }
        if plain:
            layers["trace.overhead_s"] = (
                median_of(traced, "run_s") - median_of(plain, "run_s")
            )
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, (unit, _) in spans.LAYER_METRICS.items()
        }
    if not metrics:
        failures.append("no run produced metrics")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_runs": len(setups),
        "runs": len(plain),
        "traced_runs": len(traced),
        "host": host_context(),
        "metrics": named,
        "samples": {
            key: [round(r[key], 6) for r in runs]
            for runs, keys in (
                (setups, ("setup_s", "setup_probe_s", "setup_steal_s")),
                (plain, ("run_s", "probe_s", "steal_s")),
            )
            for key in keys
        },
        "failures": failures[:50],
    }
    final = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return record, final


def _stop(signum, frame):
    # unwinds through run_child, which kills and reaps its child
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no source tree at {ROOT / 'src' / 'repro'}; run "
            "from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    signal.signal(signal.SIGTERM, _stop)
    start = time.time()
    deadline = start + DEADLINE_S
    # The host's speed drifts, core by core, by up to 2x within
    # seconds.  Pin this process and its children to one core, so that
    # the speed probe this process runs while a child works sees the
    # speed the child sees.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    work = ROOT / ".perfbench"

    results = []
    while time.time() < deadline and (
        len(results) < SETUP_RUNS_MIN
        or time.time() - start < SETUP_SHARE * args.seconds
    ):
        results.append(
            run_child(args, len(results), False, work, deadline,
                      setup_only=True)
        )

    # start another run while it would end, on average, no later than
    # half a run past --seconds, so a command ends near --seconds
    # however long its runs take
    measured = []
    begin = time.time()
    while time.time() < deadline:
        traced_runs = sum(r["traced"] for r in measured)
        done_min = len(measured) - traced_runs >= MEASURED_RUNS_MIN and (
            traced_runs or not args.trace
        )
        now = time.time()
        per_run = (now - begin) / max(1, len(measured))
        if done_min and now - start + 0.5 * per_run >= args.seconds:
            break
        traced = bool(args.trace) and len(measured) % 2 == 1
        measured.append(
            run_child(args, len(results) + len(measured), traced, work,
                      deadline)
        )
    results += measured

    record, final = summarize(args, results)
    for name, value in record["metrics"].items():
        print(f"{args.workload} {name} = {value} {NAMED_UNITS[name]}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    results_dir = work / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
