"""Tests for the ASCII figure renderer and the evaluation CLI."""

from __future__ import annotations


import pytest

from repro.eval.figures import bar_chart


SAMPLE = [
    {"shape": "8x12", "NEON": 28.2, "BLIS": 30.1, "EXO": 30.3},
    {"shape": "4x4", "NEON": 4.7, "BLIS": 5.0, "EXO": 18.3},
]


class TestBarChart:
    def test_contains_labels_and_values(self):
        text = bar_chart(SAMPLE, x="shape", series=["NEON", "BLIS", "EXO"])
        assert "8x12" in text and "4x4" in text
        assert "30.30" in text and "4.70" in text

    def test_bars_scale_with_values(self):
        text = bar_chart(SAMPLE, x="shape", series=["NEON", "EXO"], width=20)
        lines = [ln for ln in text.splitlines() if "EXO" in ln]
        big = lines[0].count("█")
        small = lines[1].count("█")
        assert big > small

    def test_title(self):
        text = bar_chart(SAMPLE, x="shape", series=["NEON"], title="Fig X")
        assert text.startswith("Fig X")

    def test_empty(self):
        assert bar_chart([], x="x", series=["y"]) == "(no data)"


class TestEvalCli:
    @pytest.mark.parametrize(
        "args",
        [
            ["--threads", "0"],
            ["--isa", "sparc"],
            ["--tune-cache", "cache"],
            ["--no-such-option"],
        ],
        ids=["threads-0", "unknown-isa", "tune-cache-alone", "unknown-option"],
    )
    def test_bad_input_exits_2(self, tmp_path, args):
        from repro.eval.__main__ import main

        outdir = tmp_path / "out"
        assert main([str(outdir), *args]) == 2
        assert not outdir.exists()

    @pytest.mark.slow
    def test_cli_writes_all_reports(self, tmp_path):
        from repro.eval.__main__ import main

        rc = main([str(tmp_path)])
        assert rc == 0
        names = {p.name for p in tmp_path.iterdir()}
        expected = {
            "fig13_solo.txt",
            "fig14_square.txt",
            "fig15_resnet_layers.txt",
            "fig16_resnet_time.txt",
            "fig17_vgg_layers.txt",
            "fig18_vgg_time.txt",
            "tables.txt",
            "SUMMARY.txt",
        }
        assert expected <= names
        summary = (tmp_path / "SUMMARY.txt").read_text()
        assert "Fig 16: finishing order ALG+EXO" in summary
        tables = (tmp_path / "tables.txt").read_text()
        assert "12544" in tables and "50176" in tables
