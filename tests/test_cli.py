"""Unit tests for the CLI."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.test_set == "7pt"
        assert args.method == "multadd"

    @pytest.mark.parametrize("name", ["naive", "off"])
    def test_kernels_rejects_the_test_reference(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--set", "7pt", "--size", "4", "--kernels", name])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCommands:
    def test_setup(self, capsys):
        assert main(["setup", "--set", "7pt", "--size", "8"]) == 0
        out = capsys.readouterr().out
        assert "operator complexity" in out

    def test_solve_sync(self, capsys):
        assert main(["solve", "--set", "7pt", "--size", "8", "--tmax", "5"]) == 0
        assert "sync multadd" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", [[], ["--run-async"]], ids=["sync", "async"])
    def test_solve_tmax_zero_rejected(self, mode, capsys):
        rc = main(["solve", "--set", "7pt", "--size", "6", "--tmax", "0", *mode])
        assert rc == 2
        assert "error: tmax must be >= 1" in capsys.readouterr().err

    def test_solve_async(self, capsys):
        rc = main(
            [
                "solve",
                "--set",
                "7pt",
                "--size",
                "8",
                "--run-async",
                "--tmax",
                "5",
                "--criterion",
                "criterion1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "async multadd" in out
        assert "corrects" in out

    def test_distributed_guard_restarts_a_crashed_grid_promptly(self, capsys):
        # The guard's timeouts are simulated seconds on this backend: a
        # wall-clock-sized watchdog would let the survivors spin for
        # ~10^5 corrections each before the crashed grid restarts.
        rc = main(
            [
                "solve", "--set", "27pt", "--size", "8", "--run-async",
                "--backend", "distributed", "--guards", "--faults", "crash:1@5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        corrects = float(re.search(r"corrects = ([0-9.]+)", out).group(1))
        assert corrects < 1000
        assert "restarts=1" in out

    def test_async_mult_rejected(self, capsys):
        rc = main(
            ["solve", "--set", "7pt", "--size", "8", "--method", "mult", "--run-async"]
        )
        assert rc == 2

    def test_models(self, capsys):
        rc = main(
            [
                "models",
                "--set",
                "7pt",
                "--size",
                "8",
                "--model",
                "full_res",
                "--delta",
                "2",
                "--tmax",
                "5",
            ]
        )
        assert rc == 0
        assert "full_res model" in capsys.readouterr().out

    def test_table1(self, capsys):
        rc = main(
            [
                "table1",
                "--set",
                "7pt",
                "--size",
                "7",
                "--tol",
                "1e-4",
                "--runs",
                "1",
                "--max-cycles",
                "100",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sync Mult" in out
        assert "r-Multadd" in out
