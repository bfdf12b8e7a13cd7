"""CLI tests: argument wiring and output of every subcommand."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "CC-SV"])
        assert args.graph == "road"
        assert args.hosts == 4
        assert args.variant == "sgr+cf+gar"

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "PageRank"])

    def test_rejects_unknown_graph(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "MIS", "--graph", "twitter"])

    def test_rejects_unknown_variant(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "MIS", "--variant", "turbo"])


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        for name in ("road", "powerlaw", "web", "web_xl"):
            assert name in out

    def test_run_cc_sv(self, capsys):
        assert main(["run", "CC-SV", "--hosts", "2", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "Kimbap" in out
        assert "rounds:" in out
        assert "messages:" in out

    def test_run_with_variant(self, capsys):
        code = main(
            ["run", "MIS", "--hosts", "2", "--threads", "4", "--variant", "sgr-only"]
        )
        assert code == 0
        assert "sgr-only" in capsys.readouterr().out

    def test_variants_sweep(self, capsys):
        assert main(["variants", "MIS", "--hosts", "2", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        for label in ("mc", "sgr-only", "sgr+cf", "Kimbap"):
            assert label in out  # the default variant prints as plain Kimbap

    def test_compare_lv(self, capsys):
        assert main(["compare-lv", "--hosts", "2", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "Vite" in out
        assert "Galois" in out
        assert "speedup over Vite" in out

    def test_engines_uses_default_tolerance(self, capsys):
        assert main(["engines", "CC-LP", "--graph", "powerlaw", "--hosts", "2"]) == 0
        assert "equivalence: async values match" in capsys.readouterr().out
