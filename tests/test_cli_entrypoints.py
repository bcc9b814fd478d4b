"""Console entry points: every CLI answers ``--help`` with exit 0.

``pyproject.toml`` declares ``repro-eval`` / ``repro-tune`` /
``repro-serve`` / ``repro-check`` console scripts; these tests pin the targets those
scripts resolve to, and that each ``main()`` handles ``--help`` cleanly
(argparse CLIs raise ``SystemExit(0)``; the eval CLI catches it and
returns 0).
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

ENTRY_POINTS = {
    "repro-eval": "repro.eval.__main__:main",
    "repro-tune": "repro.tune.__main__:main",
    "repro-serve": "repro.serve.__main__:main",
    "repro-check": "repro.analysis.__main__:main",
}


def _resolve(target: str):
    module, attr = target.split(":")
    return getattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("script", sorted(ENTRY_POINTS))
def test_help_exits_zero(script, capsys):
    main = _resolve(ENTRY_POINTS[script])
    try:
        code = main(["--help"])
    except SystemExit as exc:
        code = exc.code or 0
    assert code == 0
    out = capsys.readouterr().out
    assert "usage" in out.lower()


@pytest.mark.parametrize("script", sorted(ENTRY_POINTS))
def test_entry_point_targets_resolve(script):
    assert callable(_resolve(ENTRY_POINTS[script]))


def test_pyproject_declares_console_scripts():
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    for script, target in ENTRY_POINTS.items():
        assert f'{script} = "{target}"' in text


#: the options both serving CLIs take, with their defaults
SHARED_SERVE_DEFAULTS = {
    "outdir": "results",
    "machine": "carmel",
    "model": "resnet50",
    "arrivals": "synthetic",
    "rate": 15.0,
    "duration": 1000.0,
    "seed": 0,
    "slo_p99": 50.0,
    "max_wait": 2.0,
    "use_tuned": False,
    "tune_cache": None,
    "trace": None,
    "metrics": None,
}


def test_serve_parsers_share_option_defaults():
    from repro.serve.__main__ import _parse_args, _parse_live_args

    planner, live = vars(_parse_args([])), vars(_parse_live_args([]))
    for dest, default in SHARED_SERVE_DEFAULTS.items():
        assert planner[dest] == live[dest] == default, dest
    # each keeps its own batch cap: the planner searches, live pins 8
    assert (planner["max_batch"], live["max_batch"]) == (None, 8)
