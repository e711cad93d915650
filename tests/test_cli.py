"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_gemm_defaults(self):
        args = build_parser().parse_args(["gemm"])
        assert args.size == 4096
        assert args.nodes == 16
        assert args.precision == "fp64"
        assert not args.no_prediction

    def test_fig8_node_override(self):
        args = build_parser().parse_args(["fig8", "--nodes", "16"])
        assert args.nodes == 16


class TestCommands:
    def test_gemm_command_reports_throughput(self, capsys):
        assert main(["gemm", "--size", "1024", "--nodes", "2"]) == 0
        output = capsys.readouterr().out
        assert "GFLOPS" in output
        assert "2 nodes" in output

    def test_gemm_without_prediction(self, capsys):
        assert main(["gemm", "--size", "1024", "--nodes", "1", "--no-prediction"]) == 0
        assert "GFLOPS" in capsys.readouterr().out

    def test_fig6_command(self, capsys):
        assert main(["fig6"]) == 0
        output = capsys.readouterr().out
        assert "with prediction" in output
        assert "9216" in output

    def test_table4_command(self, capsys):
        assert main(["table4"]) == 0
        output = capsys.readouterr().out
        assert "MMAE" in output
        assert "area_efficiency_gain" in output

    def test_fig7_command(self, capsys):
        assert main(["fig7"]) == 0
        output = capsys.readouterr().out
        assert "16-core" in output

    def test_fig7_builds_each_node_series_once(self, capsys, monkeypatch):
        """Regression: efficiency_by_size must run once per node count, not
        once per (node count, matrix size) cell."""
        import repro.cli as cli_module

        calls = []
        original = cli_module.efficiency_by_size

        def counting(points, **kwargs):
            calls.append(kwargs)
            return original(points, **kwargs)

        monkeypatch.setattr(cli_module, "efficiency_by_size", counting)
        assert cli_module.main(["fig7"]) == 0
        capsys.readouterr()
        assert len(calls) == 5  # the five node counts

    def test_fig8_rerun_is_byte_identical(self, capsys):
        # The second run is served from the process-wide timing cache.
        from repro.core.perf import DEFAULT_TIMING_CACHE

        DEFAULT_TIMING_CACHE.clear()
        assert main(["fig8", "--nodes", "4"]) == 0
        cold = capsys.readouterr().out
        misses = DEFAULT_TIMING_CACHE.misses
        assert main(["fig8", "--nodes", "4"]) == 0
        assert capsys.readouterr().out == cold
        assert DEFAULT_TIMING_CACHE.misses == misses
        assert "maco" in cold

    @pytest.mark.parametrize("command", ["fig6", "fig7", "fig8", "explore", "parallel"])
    def test_jobs_flag_is_rejected(self, command, capsys):
        # Every sweep runs in one process; the old worker-pool flag is a
        # usage error, not a silent no-op.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestExploreCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.sample == "grid"
        assert args.objective == "gflops"
        assert args.format == "table"

    def test_table_output(self, capsys):
        assert main(["explore", "--sample", "random", "--points", "4",
                     "--size", "1024"]) == 0
        output = capsys.readouterr().out
        assert "design point" in output
        assert "pareto" in output

    def test_csv_output(self, capsys):
        assert main(["explore", "--sample", "lhs", "--points", "4",
                     "--size", "1024", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("design point,sa,buffer_kb,nodes,gflops")
        assert len(lines) == 5  # header + 4 sampled points

    def test_json_output_parses(self, capsys):
        import json

        assert main(["explore", "--sample", "random", "--points", "3",
                     "--size", "1024", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 3
        assert {"design point", "gflops", "efficiency", "pareto"} <= set(records[0])

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "results.csv"
        assert main(["explore", "--sample", "random", "--points", "3",
                     "--size", "1024", "--format", "csv", "--output", str(target)]) == 0
        assert "wrote 3 results" in capsys.readouterr().out
        assert target.read_text().startswith("design point,")

    def test_objective_ranking(self, capsys):
        assert main(["explore", "--sample", "random", "--points", "6",
                     "--size", "1024", "--objective", "gflops_per_watt",
                     "--format", "json"]) == 0
        import json

        records = json.loads(capsys.readouterr().out)
        ratios = [record["gflops_per_watt"] for record in records]
        assert ratios == sorted(ratios, reverse=True)

    def test_explore_rerun_is_byte_identical(self, capsys):
        from repro.core.perf import DEFAULT_TIMING_CACHE

        argv = ["explore", "--sample", "lhs", "--points", "6", "--size", "1024",
                "--format", "csv"]
        DEFAULT_TIMING_CACHE.clear()
        assert main(argv) == 0
        cold = capsys.readouterr().out
        misses = DEFAULT_TIMING_CACHE.misses
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert DEFAULT_TIMING_CACHE.misses == misses

    def test_hpl_workload(self, capsys):
        assert main(["explore", "--sample", "random", "--points", "3",
                     "--workload", "hpl", "--size", "1024"]) == 0
        assert "design point" in capsys.readouterr().out

    def test_hpl_workload_respects_precision(self, capsys):
        argv = ["explore", "--sample", "random", "--points", "3",
                "--workload", "hpl", "--size", "1024", "--format", "csv"]
        assert main(argv + ["--precision", "fp64"]) == 0
        fp64 = capsys.readouterr().out
        assert main(argv + ["--precision", "fp32"]) == 0
        fp32 = capsys.readouterr().out
        assert fp32 != fp64  # the precision flag must reach the workload

    def test_invalid_domain_input_exits_cleanly(self, capsys):
        assert main(["explore", "--sample", "random", "--points", "0"]) == 2
        assert "error: count must be positive" in capsys.readouterr().err


class TestServeCommand:
    ARGV = ["serve", "--trace", "poisson", "--tenants", "3", "--seed", "7",
            "--requests", "60", "--nodes", "4"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.trace == "poisson"
        assert args.scheduler == "fcfs"
        assert args.tenants == 3
        assert args.format == "table"
        assert args.rate is None

    def test_table_output_reports_all_sections(self, capsys):
        assert main(self.ARGV) == 0
        output = capsys.readouterr().out
        assert "Per-tenant latency and throughput" in output
        assert "Per-node utilization" in output
        for column in ("p50 (ms)", "p95 (ms)", "p99 (ms)", "req/s", "utilization"):
            assert column in output
        for tenant in ("tenant0", "tenant1", "tenant2"):
            assert tenant in output

    def test_repeated_runs_are_bit_identical(self, capsys):
        assert main(self.ARGV + ["--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGV + ["--format", "json"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flag", ["--jobs", "--shards"])
    def test_pool_and_shard_flags_are_rejected(self, flag, capsys):
        # serve runs the whole trace in one process; the flags of the old
        # worker pool and trace sharding are usage errors, not silent no-ops.
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGV + [flag, "2"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_json_output_has_required_metrics(self, capsys):
        import json

        assert main(self.ARGV + ["--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {"latency_p50_s", "latency_p95_s", "latency_p99_s",
                "throughput_rps", "tenants", "nodes"} <= set(report)
        assert len(report["tenants"]) == 3
        for tenant in report["tenants"]:
            assert tenant["latency_p99_s"] >= tenant["latency_p50_s"]
        assert all("utilization" in node for node in report["nodes"])

    def test_scheduler_choices_run(self, capsys):
        for scheduler in ("fcfs", "sjf", "rr"):
            assert main(self.ARGV + ["--scheduler", scheduler]) == 0
            assert "Serve report" in capsys.readouterr().out

    def test_replay_from_file(self, tmp_path, capsys):
        assert main(self.ARGV + ["--format", "json"]) == 0
        capsys.readouterr()
        records = [
            {"tenant": "a", "workload": "resnet50", "arrival_s": 0.0},
            {"tenant": "b", "workload": "resnet50", "arrival_s": 0.5},
        ]
        import json

        path = tmp_path / "trace.json"
        path.write_text(json.dumps(records))
        assert main(["serve", "--trace", "replay", "--trace-file", str(path),
                     "--nodes", "2"]) == 0
        captured = capsys.readouterr()
        assert "2 requests" in captured.out
        assert "warning" not in captured.err
        # Generation-only flags are meaningless for a replayed trace: warn.
        assert main(["serve", "--trace", "replay", "--trace-file", str(path),
                     "--nodes", "2", "--tenants", "5", "--precision", "fp16"]) == 0
        captured = capsys.readouterr()
        assert "ignoring --tenants, --precision" in captured.err

    def test_replay_without_file_errors(self, capsys):
        assert main(["serve", "--trace", "replay"]) == 2
        assert "requires --trace-file" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(self.ARGV + ["--format", "json", "--output", str(target)]) == 0
        assert "wrote serve report" in capsys.readouterr().out
        import json

        assert json.loads(target.read_text())["total_requests"] > 0


class TestWorkloadsCommand:
    def test_list_covers_catalog(self, capsys):
        from repro.workloads import workload_catalog

        assert main(["workloads", "list"]) == 0
        output = capsys.readouterr().out
        for name in workload_catalog():
            assert name in output

    def test_list_json_parses(self, capsys):
        import json

        assert main(["workloads", "list", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in entries]
        assert "llama-7b" in names and "moe-8x" in names
        assert all("phases" in entry and "gflop" in entry for entry in entries)

    def test_describe_shows_phase_table(self, capsys):
        assert main(["workloads", "describe", "llama-7b@decode,layers=2"]) == 0
        output = capsys.readouterr().out
        assert "decode[512:528]" in output
        assert "state (MB)" in output
        assert "flop/byte" in output

    def test_describe_requires_name(self, capsys):
        assert main(["workloads", "describe"]) == 2
        assert "needs a catalog name" in capsys.readouterr().err

    def test_describe_unknown_name_errors_cleanly(self, capsys):
        assert main(["workloads", "describe", "alexnet"]) == 2
        assert "options" in capsys.readouterr().err

    def test_export_round_trips_through_the_ir(self, capsys):
        from repro.workloads import WorkloadGraph, workload_graph_by_name

        assert main(["workloads", "export", "moe-8x@experts=4,layers=2"]) == 0
        text = capsys.readouterr().out
        clone = WorkloadGraph.from_json(text)
        assert clone == workload_graph_by_name("moe-8x@experts=4,layers=2")

    def test_export_to_file(self, tmp_path, capsys):
        import json

        target = tmp_path / "graph.json"
        assert main(["workloads", "export", "resnet50-conv", "--output", str(target)]) == 0
        assert "wrote export output" in capsys.readouterr().out
        record = json.loads(target.read_text())
        assert [phase["name"] for phase in record["phases"]] == [
            "stem", "stage1", "stage2", "stage3", "stage4"]

    def test_precision_flag_reaches_export(self, capsys):
        assert main(["workloads", "export", "bert", "--precision", "fp16"]) == 0
        assert '"precision": "fp16"' in capsys.readouterr().out


class TestPhaseAwareExplore:
    ARGV = ["explore", "--sample", "random", "--points", "3",
            "--workload", "llama-7b@decode,layers=1,decode=8,block=4", "--precision", "fp32"]

    def test_catalog_workload_aggregate_table(self, capsys):
        assert main(self.ARGV) == 0
        output = capsys.readouterr().out
        assert "design point" in output and "pareto" in output

    def test_per_phase_rows(self, capsys):
        import json

        assert main(self.ARGV + ["--per-phase", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 3 * 2  # three points x two decode blocks
        assert {"design point", "phase", "kind", "seconds"} <= set(records[0])
        assert all(record["kind"] == "decode" for record in records)

    def test_per_phase_square_is_one_generic_phase_per_point(self, capsys):
        import json

        argv = ["explore", "--sample", "random", "--points", "2",
                "--size", "1024", "--format", "json"]
        assert main(argv) == 0
        aggregates = json.loads(capsys.readouterr().out)
        assert main(argv + ["--per-phase"]) == 0
        phases = json.loads(capsys.readouterr().out)
        assert [record["kind"] for record in phases] == ["generic"] * len(aggregates)
        assert [(record["design point"], record["seconds"]) for record in phases] == \
               [(record["design point"], record["seconds"]) for record in aggregates]

    def test_unknown_catalog_workload_errors_cleanly(self, capsys):
        assert main(["explore", "--sample", "random", "--points", "2",
                     "--workload", "alexnet"]) == 2
        assert "options" in capsys.readouterr().err


class TestServeTenantMix:
    ARGV = ["serve", "--trace", "poisson", "--tenants", "2", "--seed", "3",
            "--requests", "20", "--nodes", "2", "--tenant-mix", "llm"]

    def test_llm_mix_runs_and_labels_tenants(self, capsys):
        assert main(self.ARGV) == 0
        output = capsys.readouterr().out
        assert "tenant0-prefill" in output
        assert "tenant1-decode" in output

    def test_llm_mix_repeated_runs_are_bit_identical(self, capsys):
        assert main(self.ARGV + ["--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGV + ["--format", "json"]) == 0
        assert capsys.readouterr().out == first
