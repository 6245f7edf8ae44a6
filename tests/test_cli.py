"""Tests for the repro-bcast command-line interface."""

from __future__ import annotations

import os

import pytest

from repro.cli import main


class TestScheduleCommand:
    def test_schedule_on_grid5000(self, capsys):
        assert main(["schedule", "--heuristic", "ecef", "--message-size", "1048576"]) == 0
        output = capsys.readouterr().out
        assert "makespan" in output
        assert "cluster 0 ->" in output

    def test_schedule_on_random_grid(self, capsys):
        assert main(["schedule", "--clusters", "4", "--seed", "3"]) == 0
        assert "schedule produced by" in capsys.readouterr().out

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--heuristic", "wishful"])


class TestCompareCommand:
    def test_compare_lists_all_paper_heuristics(self, capsys):
        assert main(["compare", "--clusters", "5", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        for name in ("Flat Tree", "FEF", "ECEF", "ECEF-LA", "ECEF-LAT", "BottomUp"):
            assert name in output


class TestSimulateCommand:
    def test_small_simulation_table(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--iterations",
                    "5",
                    "--min-clusters",
                    "2",
                    "--max-clusters",
                    "4",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Mean completion time" in output
        assert "clusters" in output


class TestPracticalCommand:
    def test_practical_tables(self, capsys):
        assert main(["practical", "--points", "2", "--max-size", "1048576"]) == 0
        output = capsys.readouterr().out
        assert "Predicted completion time" in output
        assert "Measured completion time" in output
        assert "Default LAM" in output

    def test_practical_scatter_table(self, capsys):
        assert (
            main(
                [
                    "practical",
                    "--collective",
                    "scatter",
                    "--points",
                    "2",
                    "--max-size",
                    "65536",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Measured scatter completion time" in output
        assert "Flat scatter" in output

    def test_practical_alltoall_table(self, capsys):
        assert (
            main(
                [
                    "practical",
                    "--collective",
                    "alltoall",
                    "--points",
                    "2",
                    "--max-size",
                    "4096",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Measured all-to-all completion time" in output
        assert "Grid-aware" in output

    def test_practical_rejects_unknown_collective(self):
        with pytest.raises(SystemExit):
            main(["practical", "--collective", "gather"])

    def test_practical_replicas_flag(self, capsys):
        assert (
            main(
                [
                    "practical",
                    "--points",
                    "2",
                    "--max-size",
                    "1048576",
                    "--replicas",
                    "2",
                ]
            )
            == 0
        )
        assert "mean of 2 replicas" in capsys.readouterr().out


class TestChainCommand:
    def test_chain_table(self, capsys):
        assert (
            main(
                [
                    "chain",
                    "--collectives",
                    "scatter,alltoall",
                    "--points",
                    "2",
                    "--max-size",
                    "16384",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "scatter -> alltoall" in output
        assert "overlap_gain" in output

    def test_chain_repeated_bcast(self, capsys):
        assert (
            main(
                [
                    "chain",
                    "--collectives",
                    "bcast",
                    "--repeat",
                    "2",
                    "--points",
                    "2",
                    "--max-size",
                    "65536",
                ]
            )
            == 0
        )
        assert "bcast#1 -> bcast#2" in capsys.readouterr().out


class TestParser:
    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            main([])


class TestExecutorFlag:
    def test_simulate_with_process_executor(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--iterations",
                    "5",
                    "--min-clusters",
                    "2",
                    "--max-clusters",
                    "3",
                    "--workers",
                    "2",
                    "--executor",
                    "process",
                ]
            )
            == 0
        )
        assert "Mean completion time" in capsys.readouterr().out

    def test_practical_with_process_executor(self, capsys):
        assert (
            main(
                [
                    "practical",
                    "--points",
                    "2",
                    "--max-size",
                    "65536",
                    "--workers",
                    "2",
                    "--executor",
                    "process",
                ]
            )
            == 0
        )
        assert "Measured completion time" in capsys.readouterr().out

    def test_unknown_executor_rejected(self):
        with pytest.raises(SystemExit):
            main(["practical", "--executor", "carrier-pigeon"])


class TestConnectTimeoutKnob:
    """The connect/handshake budget: CLI flag -> env var -> resolver."""

    def test_env_var_fallback_and_default(self, monkeypatch):
        from repro.runtime.remote import (
            CONNECT_TIMEOUT,
            CONNECT_TIMEOUT_ENV_VAR,
            MIN_CONNECT_TIMEOUT,
            _resolve_seconds,
        )

        def resolve(value):
            return _resolve_seconds(
                value, CONNECT_TIMEOUT_ENV_VAR, CONNECT_TIMEOUT, MIN_CONNECT_TIMEOUT
            )

        monkeypatch.delenv(CONNECT_TIMEOUT_ENV_VAR, raising=False)
        assert resolve(None) == CONNECT_TIMEOUT
        assert resolve(7.5) == 7.5  # explicit wins
        monkeypatch.setenv(CONNECT_TIMEOUT_ENV_VAR, "12.5")
        assert resolve(None) == 12.5
        assert resolve(7.5) == 7.5  # explicit still wins
        monkeypatch.setenv(CONNECT_TIMEOUT_ENV_VAR, "0")
        assert resolve(None) == 0.05  # clamped floor
        monkeypatch.setenv(CONNECT_TIMEOUT_ENV_VAR, "soon")
        assert resolve(None) == CONNECT_TIMEOUT  # degrade

    def test_cli_flag_exports_the_env_var(self, monkeypatch, capsys):
        from repro.runtime.remote import CONNECT_TIMEOUT_ENV_VAR

        # setenv first records the prior state, so the export is undone
        # even when the variable was unset (a bare delenv would not be).
        monkeypatch.setenv(CONNECT_TIMEOUT_ENV_VAR, "")
        monkeypatch.delenv(CONNECT_TIMEOUT_ENV_VAR)
        assert (
            main(
                [
                    "practical",
                    "--points",
                    "2",
                    "--max-size",
                    "65536",
                    "--connect-timeout",
                    "3.5",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert os.environ.get(CONNECT_TIMEOUT_ENV_VAR) == "3.5"

    def test_cli_hosts_flag_exports_the_env_var(self, monkeypatch, capsys):
        """``--hosts`` names the remote lane's agents the way ``REPRO_HOSTS``
        does: by setting it."""
        from repro.runtime.remote import HOSTS_ENV_VAR

        monkeypatch.setenv(HOSTS_ENV_VAR, "")  # restored afterwards, as above
        monkeypatch.delenv(HOSTS_ENV_VAR)
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert (
            main(
                [
                    "practical",
                    "--points",
                    "2",
                    "--max-size",
                    "65536",
                    "--hosts",
                    "127.0.0.1:7301,127.0.0.1:7302",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert os.environ.get(HOSTS_ENV_VAR) == "127.0.0.1:7301,127.0.0.1:7302"

    def test_worker_serve_admission_flags_document_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "serve", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        assert "--max-coordinators" in help_text
        assert "--queue" in help_text
        assert "--connect-timeout" not in help_text  # coordinator-side knob


class TestHelpTextDefaults:
    """Every option with a default documents it, and the documented value is
    the actual parser default — so `--help` can never silently drift."""

    @staticmethod
    def _subparsers():
        """Yield every *leaf* subcommand as ("space joined path", parser).

        Command groups (like ``worker``, which only routes to ``worker
        serve``) are walked through recursively, so nested subcommands get
        the same defaults-documented guarantee as top-level ones.
        """
        from repro.cli import _build_parser
        import argparse

        def walk(prefix, sub_parser):
            nested = [
                action
                for action in sub_parser._actions
                if isinstance(action, argparse._SubParsersAction)
            ]
            if nested:
                for name, child in nested[0].choices.items():
                    yield from walk(f"{prefix} {name}", child)
            else:
                yield prefix.strip(), sub_parser

        parser = _build_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    yield from walk(name, child)

    def test_every_defaulted_option_documents_its_default(self):
        import argparse

        missing = []
        for command, sub_parser in self._subparsers():
            for action in sub_parser._actions:
                if not action.option_strings or isinstance(
                    action, argparse._HelpAction
                ):
                    continue
                help_text = action.help or ""
                if "default" not in help_text.lower():
                    missing.append(f"{command} {action.option_strings[0]}")
                    continue
                # Options with a concrete (non-None) default must state the
                # exact value; env-var-driven options name the variable chain
                # instead.
                if action.default is not None:
                    if str(action.default) not in help_text:
                        missing.append(
                            f"{command} {action.option_strings[0]} "
                            f"(says nothing about {action.default!r})"
                        )
        assert not missing, (
            "CLI options whose --help does not state their default: "
            + ", ".join(missing)
        )

    def test_help_renders_for_every_subcommand(self, capsys):
        for command, _ in self._subparsers():
            with pytest.raises(SystemExit) as excinfo:
                main([*command.split(), "--help"])
            assert excinfo.value.code == 0
            assert "default" in capsys.readouterr().out.lower()
