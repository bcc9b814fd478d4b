"""One measured run of one workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Set-up time counts
from the parent's clock reading just before it started this process
(``--spawned``; ``perf_counter`` is the system-wide monotonic clock on
Linux), so interpreter start and imports are part of ``setup_s``.

Writes one JSON result to ``--result``, with the clock readings that
bound set-up and the timed section, so that ``run.py`` can pick out the
speed-probe samples and steal readings it took meanwhile.  With ``--setup-only 1`` the
process stops after set-up.  With ``--trace 1`` the layer bindings are
wrapped before the inputs are generated, and the spans are written as a
Chrome trace to ``--chrome``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--chrome", required=True)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    import workloads

    setup, run, check = workloads.WORKLOADS[args.workload]
    result = {"attempted": 1, "failures": []}
    try:
        rec = None
        if args.trace:
            rec = spans.Recorder()
            spans.install(rec)
        state = setup(args.seed, args.tmp)
        result["setup_window"] = (args.spawned, time.perf_counter())
        result["setup_s"] = result["setup_window"][1] - args.spawned
        if args.setup_only:
            result["attempted"] = 0
        else:
            out = run(state)
            result["window"] = out["window"]
            result["run_s"] = out["run_s"]
            result["figures"] = out["figures"]
            # peak resident set of this process, in MiB (Linux reports KiB)
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            if rec is not None:
                result["layers"] = spans.layer_metrics(
                    rec, args.workload, out["window"]
                )
            attempted, failures = check(state, out)
            result["attempted"] = attempted
            result["failures"] = failures
            if rec is not None:
                rec.write_chrome(args.chrome, args.spawned)
    except Exception:  # any crash is a failed operation, reported upward
        result["failures"].append(traceback.format_exc())
    Path(args.result).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
