"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.n == 2000
        assert args.dim == 2
        assert args.algorithms == ["double-approx", "incdbscan"]

    def test_bench_rejects_unknown_algorithm(self, capsys):
        code = main(["bench", "--n", "50", "quantum-dbscan"])
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.n == 10000 and args.dim == 2


class TestCommands:
    def test_bench_runs(self, capsys):
        code = main(["bench", "--n", "150", "--seed", "1", "double-approx"])
        assert code == 0
        out = capsys.readouterr().out
        assert "double-approx" in out
        assert "avg" in out

    def test_bench_semi_flag_builds_insert_only(self, capsys):
        code = main(["bench", "--n", "120", "--semi", "semi-approx"])
        assert code == 0
        assert "%ins=1.000" in capsys.readouterr().out

    def test_bench_skips_semi_on_mixed_workload(self, capsys):
        code = main(["bench", "--n", "120", "semi-approx"])
        assert code == 0
        assert "skipped" in capsys.readouterr().out

    def test_generate_writes_csv(self, tmp_path, capsys):
        out_file = tmp_path / "points.csv"
        code = main(["generate", "--n", "25", "--dim", "3", "--output", str(out_file)])
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 25
        assert all(len(line.split(",")) == 3 for line in lines)

    def test_generate_stdout(self, capsys):
        code = main(["generate", "--n", "5"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5

    def test_usec_agrees(self, capsys):
        code = main(["usec", "--n", "8", "--instances", "3"])
        assert code == 0
        assert "3/3 agree" in capsys.readouterr().out


class TestBatchedBench:
    def test_batch_size_flag_parsed(self):
        args = build_parser().parse_args(["bench", "--batch-size", "64"])
        assert args.batch_size == 64
        assert build_parser().parse_args(["bench"]).batch_size is None

    def test_bench_runs_batched(self, capsys):
        code = main(
            ["bench", "--n", "150", "--seed", "2", "--batch-size", "32",
             "double-approx"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batched" in out and "batch=32" in out
        assert "p99-update" in out

    def test_bench_batched_semi_insert_only(self, capsys):
        code = main(
            ["bench", "--n", "120", "--semi", "--batch-size", "16",
             "semi-approx"]
        )
        assert code == 0
        assert "semi-approx" in capsys.readouterr().out

    def test_backend_reported(self, capsys):
        code = main(["bench", "--n", "120", "double-approx"])
        assert code == 0
        assert "backend=numpy" in capsys.readouterr().out

    def test_backend_rejects_unknown(self):
        # One kernel implementation: there is no backend to choose.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--backend", "numpy"])

    def test_invalid_batch_size_clean_error(self, capsys):
        for bad in ("0", "-4"):
            code = main(["bench", "--n", "50", "--batch-size", bad, "double-approx"])
            assert code == 2
            assert "--batch-size must be >= 1" in capsys.readouterr().err


class TestJsonBench:
    """`bench --format json` emits one machine-consumable metrics record."""

    def test_format_flag_parsed(self):
        assert build_parser().parse_args(["bench"]).format == "text"
        args = build_parser().parse_args(["bench", "--format", "json"])
        assert args.format == "json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--format", "yaml"])

    def test_json_record_structure(self, capsys):
        code = main(
            ["bench", "--n", "150", "--seed", "3", "--format", "json",
             "double-approx", "recompute"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["workload"]["n"] == 150
        assert record["workload"]["dim"] == 2
        assert record["backend"]
        by_name = {a["name"]: a for a in record["algorithms"]}
        assert set(by_name) == {"double-approx", "recompute"}
        entry = by_name["double-approx"]
        assert not entry["skipped"]
        for key in (
            "avg_cost_per_op_us", "avg_update_us", "max_update_us",
            "p50_update_us", "p99_update_us", "avg_query_us",
            "p50_query_us", "p99_query_us",
        ):
            assert isinstance(entry[key], float), key
        assert entry["p50_update_us"] <= entry["p99_update_us"] <= entry["max_update_us"]
        assert entry["config"]["algorithm"] == "double-approx"
        assert entry["config"]["rho"] == pytest.approx(0.001)
        assert entry["epoch"] == entry["update_count"]
        assert entry["backend"] == record["backend"]

    def test_json_marks_skipped_algorithms(self, capsys):
        code = main(["bench", "--n", "120", "--format", "json", "semi-approx"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        (entry,) = record["algorithms"]
        assert entry["skipped"] and "deletions" in entry["reason"]

    def test_json_batched_run(self, capsys):
        code = main(
            ["bench", "--n", "150", "--seed", "4", "--batch-size", "32",
             "--format", "json", "double-approx"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["workload"]["batch_size"] == 32
        (entry,) = record["algorithms"]
        assert entry["config"]["batch_size"] == 32


class TestScenarioBench:
    """`bench --scenario sliding-window` swaps in the streaming family."""

    def test_scenario_flags_parsed(self):
        args = build_parser().parse_args(["bench"])
        assert args.scenario == "mixed"
        assert args.window_capacity is None
        assert args.arrival == "burst"
        args = build_parser().parse_args(
            ["bench", "--scenario", "sliding-window", "--window-capacity",
             "64", "--arrival", "evolving"]
        )
        assert args.scenario == "sliding-window"
        assert args.window_capacity == 64
        assert args.arrival == "evolving"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--scenario", "tsunami"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--arrival", "tsunami"])

    def test_sliding_window_text_run(self, capsys):
        code = main(
            ["bench", "--n", "200", "--seed", "5", "--scenario",
             "sliding-window", "double-approx"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario: sliding-window (burst arrivals)" in out
        assert "capacity=50" in out  # n // 4
        assert "double-approx" in out

    def test_sliding_window_json_record(self, capsys):
        code = main(
            ["bench", "--n", "200", "--seed", "5", "--scenario",
             "sliding-window", "--window-capacity", "40", "--arrival",
             "evolving", "--format", "json", "double-approx"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        workload = record["workload"]
        assert workload["scenario"] == "sliding-window"
        assert workload["arrival"] == "evolving"
        assert workload["window_capacity"] == 40
        assert workload["batches"] >= 1
        # Mixed-workload knobs are explicitly null for scenario runs.
        assert workload["insert_fraction"] is None
        assert workload["query_count"] is None
        (entry,) = record["algorithms"]
        assert entry["scenario"] == "sliding-window"
        assert not entry["skipped"]
        assert entry["update_count"] > 0

    def test_mixed_runs_stamp_scenario_too(self, capsys):
        code = main(
            ["bench", "--n", "150", "--seed", "6", "--format", "json",
             "double-approx"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["workload"]["scenario"] == "mixed"
        (entry,) = record["algorithms"]
        assert entry["scenario"] == "mixed"

    def test_sliding_window_skips_insert_only_algorithms(self, capsys):
        code = main(
            ["bench", "--n", "150", "--scenario", "sliding-window",
             "semi-approx"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skipped" in out
        assert "cannot expire a sliding window" in out

    def test_semi_flag_conflicts_with_sliding_window(self, capsys):
        code = main(
            ["bench", "--n", "150", "--semi", "--scenario",
             "sliding-window", "semi-approx"]
        )
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_bad_window_capacity_clean_error(self, capsys):
        code = main(
            ["bench", "--n", "150", "--scenario", "sliding-window",
             "--window-capacity", "0", "double-approx"]
        )
        assert code == 2
        assert "capacity" in capsys.readouterr().err


class TestServeParser:
    """The `serve` command (the asyncio service needs no socket here —
    these pin the CLI surface; end-to-end serving is exercised by the
    CI smoke step and tests/test_service.py)."""

    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7171
        assert args.algorithm == "full"
        assert args.dim == 2
        assert args.shards is None
        assert args.window_capacity is None
        assert args.max_sessions == 64
        assert args.queue_depth == 32
        assert args.max_inflight == 256
        assert args.allow_shutdown_op is False

    def test_knobs_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--algorithm", "double-approx",
             "--shards", "4", "--shard-executor", "serial",
             "--window-capacity", "500", "--max-sessions", "8",
             "--queue-depth", "4", "--max-inflight", "16",
             "--allow-shutdown-op"]
        )
        assert args.port == 9000
        assert args.algorithm == "double-approx"
        assert args.shards == 4
        assert args.window_capacity == 500
        assert args.max_sessions == 8
        assert args.queue_depth == 4
        assert args.max_inflight == 16
        assert args.allow_shutdown_op is True

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--algorithm", "quantum"])

    def test_bad_limits_clean_error(self, capsys):
        code = main(["serve", "--max-sessions", "0"])
        assert code == 2
        assert "max_sessions" in capsys.readouterr().err

    def test_windowed_semi_clean_error(self, capsys):
        code = main(
            ["serve", "--algorithm", "semi", "--window-capacity", "100"]
        )
        assert code == 2
        assert "sliding window" in capsys.readouterr().err
