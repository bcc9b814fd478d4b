"""Static-analysis CLI: ``python -m repro.analysis`` / ``repro-check``.

Two subcommands mirror the two passes::

    repro-check verify --isa neon            # kernel IR verifier
    repro-check verify --isa all
    repro-check lint [path ...]              # determinism linter

``verify`` generates and checks the kernels of every tile of the named
target(s) (the full register-tile family, plus reduced-AVL ``vsetvl``
tails on VLA targets); ``lint`` walks ``src/repro`` by default.  Both
exit 0 when clean and 1 when any finding survives, so the same
invocations gate CI's ``static-analysis`` job.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import obs as obslib

from . import default_lint_paths, lint_paths, verify_target

log = obslib.get_logger("analysis")


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Static kernel verifier and determinism linter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        help="verify the kernels of every family tile of an ISA target",
    )
    verify.add_argument(
        "--isa",
        default="all",
        help="comma-separated ISA target names, or 'all' (default)",
    )
    verify.add_argument(
        "--tiles",
        default=None,
        help="explicit MRxNR[,...] tiles instead of the full family",
    )

    lint = sub.add_parser(
        "lint",
        help="lint Python sources for determinism hazards",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/repro)",
    )

    obslib.add_logging_args(parser)
    return parser.parse_args(argv)


def _parse_tiles(spec: Optional[str]):
    if spec is None:
        return None
    tiles = []
    for part in spec.split(","):
        dims = part.strip().lower().split("x")
        if len(dims) != 2:
            raise ValueError(
                f"bad tile {part!r}: expected MRxNR, e.g. 8x12"
            )
        tiles.append((int(dims[0]), int(dims[1])))
    return tiles


def _run_verify(args: argparse.Namespace) -> int:
    from repro.tune.space import resolve_isas

    names = [s.strip() for s in args.isa.split(",") if s.strip()]
    try:
        isas = resolve_isas(names)
        tiles = _parse_tiles(args.tiles)
    except (KeyError, ValueError) as exc:
        log.error(str(exc))
        return 2
    failures = 0
    kernels = 0
    for isa in isas:
        for report in verify_target(isa, tiles=tiles):
            kernels += 1
            if report.ok:
                log.info(f"ok {isa} {report.name}")
            else:
                failures += 1
                for finding in report.findings:
                    log.error(f"{isa} {report.name}: {finding}")
    if failures:
        log.error(
            f"{failures} of {kernels} kernels failed verification"
        )
        return 1
    log.info(f"ok: {kernels} kernels verified across {len(isas)} "
             "target(s)")
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    paths = args.paths or default_lint_paths()
    findings = lint_paths(paths)
    for finding in findings:
        log.error(str(finding))
    if findings:
        log.error(f"{len(findings)} determinism finding(s)")
        return 1
    log.info("ok: no determinism findings")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    obslib.configure_from_args(args)
    if args.command == "verify":
        return _run_verify(args)
    return _run_lint(args)


if __name__ == "__main__":
    raise SystemExit(main())
