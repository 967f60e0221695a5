"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import build_parser, main_with_args
from repro.execution.shared_cache import shared_memory_available
from repro.graphs import barbell_graph
from repro.graphs.io import write_edge_list


@pytest.fixture
def barbell_file(tmp_path):
    path = tmp_path / "barbell.edges"
    write_edge_list(barbell_graph(5, 2), path)
    return str(path)


def run_cli(args):
    out = io.StringIO()
    code = main_with_args(args, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_requires_graph_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--vertex", "0"])

    def test_graph_and_dataset_mutually_exclusive(self, barbell_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["estimate", "--graph", barbell_file, "--dataset", "email", "--vertex", "0"]
            )


class TestEstimateCommand:
    def test_estimate_from_file(self, barbell_file):
        code, output = run_cli(
            ["estimate", "--graph", barbell_file, "--vertex", "5", "--samples", "100", "--seed", "1"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["vertex"] == "5"
        assert payload["method"] == "mh-single"
        assert payload["samples"] == 100
        assert payload["estimate"] >= 0.0

    def test_estimate_with_baseline_method(self, barbell_file):
        code, output = run_cli(
            ["estimate", "--graph", barbell_file, "--vertex", "5", "--method", "rk",
             "--samples", "50", "--seed", "1"]
        )
        assert code == 0
        assert json.loads(output)["method"] == "riondato-kornaropoulos"

    def test_estimate_from_dataset(self):
        code, output = run_cli(
            ["estimate", "--dataset", "barbell", "--size", "tiny", "--vertex", "10",
             "--samples", "30", "--seed", "2"]
        )
        assert code == 0
        assert "estimate" in json.loads(output)

    def test_missing_vertex_reports_error(self, barbell_file):
        code, _ = run_cli(
            ["estimate", "--graph", barbell_file, "--vertex", "999", "--samples", "10"]
        )
        assert code == 2


class TestRelativeCommand:
    def test_relative_from_file(self, barbell_file):
        code, output = run_cli(
            ["relative", "--graph", barbell_file, "--vertices", "5,6,4",
             "--samples", "200", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(output)
        assert set(payload["reference_set"]) == {"5", "6", "4"}
        assert "5/6" in payload["ratios"]
        assert len(payload["ranking"]) == 3


class TestExactCommand:
    def test_exact_all_vertices(self, barbell_file):
        code, output = run_cli(["exact", "--graph", barbell_file])
        assert code == 0
        payload = json.loads(output)
        assert len(payload) == 12

    def test_exact_top_k(self, barbell_file):
        code, output = run_cli(["exact", "--graph", barbell_file, "--top", "2"])
        payload = json.loads(output)
        assert code == 0
        assert set(payload) == {"5", "6"}

    def test_exact_selected_vertices(self, barbell_file):
        code, output = run_cli(["exact", "--graph", barbell_file, "--vertices", "5,0"])
        payload = json.loads(output)
        assert set(payload) == {"5", "0"}


class TestExecutionFlags:
    """--jobs wiring into the ExecutionPlan."""

    def test_estimate_with_execution_flags(self, barbell_file):
        code, output = run_cli(
            ["estimate", "--graph", barbell_file, "--vertex", "5", "--method",
             "uniform-source", "--samples", "40", "--seed", "1",
             "--jobs", "2"]
        )
        assert code == 0
        payload = json.loads(output)
        assert "backend" not in payload
        assert payload["jobs"] == 2
        # Block widths are the kernels' choice; the stamp says so.
        assert payload["batch_size"] == "kernel-chosen"

    def test_estimate_jobs_do_not_change_the_estimate(self, barbell_file):
        estimates = []
        for jobs in ("1", "2", "4"):
            code, output = run_cli(
                ["estimate", "--graph", barbell_file, "--vertex", "5", "--method",
                 "uniform-source", "--samples", "40", "--seed", "7", "--jobs", jobs]
            )
            assert code == 0
            estimates.append(json.loads(output)["estimate"])
        assert estimates[0] == estimates[1] == estimates[2]

    def test_exact_with_execution_flags_matches_sequential(self, barbell_file):
        code_seq, out_seq = run_cli(["exact", "--graph", barbell_file])
        code_par, out_par = run_cli(
            ["exact", "--graph", barbell_file, "--jobs", "2"]
        )
        assert code_seq == code_par == 0
        seq, par = json.loads(out_seq), json.loads(out_par)
        assert seq.keys() == par.keys()
        for v in seq:
            assert par[v] == pytest.approx(seq[v], rel=1e-9, abs=1e-12)

    def test_relative_accepts_execution_flags(self, barbell_file):
        code, output = run_cli(
            ["relative", "--graph", barbell_file, "--vertices", "5,6",
             "--samples", "100", "--seed", "3", "--jobs", "2"]
        )
        assert code == 0
        assert "5/6" in json.loads(output)["ratios"]

    def test_rejects_non_positive_jobs(self, barbell_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["exact", "--graph", barbell_file, "--jobs", "0"]
            )

    def test_backend_flag_is_gone(self, barbell_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["exact", "--graph", barbell_file, "--backend", "gpu"]
            )


class TestMultiChainFlags:
    """--chains / --rhat wiring into the multi-chain driver."""

    def test_estimate_with_chains(self, barbell_file):
        code, output = run_cli(
            ["estimate", "--graph", barbell_file, "--vertex", "5",
             "--samples", "80", "--seed", "1", "--chains", "4"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["method"] == "mh-multichain"
        assert payload["chains"] == 4
        assert payload["rhat"] is not None
        assert payload["ess"] is not None

    def test_estimate_chains_do_not_change_with_jobs(self, barbell_file):
        estimates = []
        for jobs in ("1", "2", "4"):
            code, output = run_cli(
                ["estimate", "--graph", barbell_file, "--vertex", "5",
                 "--samples", "64", "--seed", "7", "--chains", "4", "--jobs", jobs]
            )
            assert code == 0
            estimates.append(json.loads(output)["estimate"])
        assert estimates[0] == estimates[1] == estimates[2]

    def test_estimate_with_rhat_early_stop(self, barbell_file):
        code, output = run_cli(
            ["estimate", "--graph", barbell_file, "--vertex", "5",
             "--samples", "4000", "--seed", "1", "--chains", "4", "--rhat", "1.5"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["converged"] is True
        assert payload["samples"] < 4000

    def test_single_chain_matches_plain_estimate(self, barbell_file):
        base = ["estimate", "--graph", barbell_file, "--vertex", "5",
                "--samples", "60", "--seed", "9"]
        code_a, out_a = run_cli(base)
        code_b, out_b = run_cli(base + ["--chains", "1"])
        assert code_a == code_b == 0
        assert json.loads(out_a)["estimate"] == json.loads(out_b)["estimate"]

    def test_chains_rejected_for_baseline_methods(self, barbell_file):
        code, _ = run_cli(
            ["estimate", "--graph", barbell_file, "--vertex", "5", "--method", "rk",
             "--samples", "20", "--chains", "4"]
        )
        assert code == 2

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="asserts the arena engaged; platforms without shared memory "
        "fall back to private caches by design",
    )
    def test_estimate_with_shared_cache(self, barbell_file):
        """Pooled chains attach the arena; inline chains do not; same bits."""
        base = ["estimate", "--graph", barbell_file, "--vertex", "5",
                "--samples", "64", "--seed", "7", "--chains", "4"]
        code_a, out_a = run_cli(base)
        code_b, out_b = run_cli(base + ["--jobs", "2"])
        assert code_a == code_b == 0
        inline, pooled = json.loads(out_a), json.loads(out_b)
        assert pooled["estimate"] == inline["estimate"]
        assert inline["shared_cache"] is False and pooled["shared_cache"] is True

    def test_shared_cache_flag_is_gone(self, barbell_file):
        with pytest.raises(SystemExit) as exit_info:
            main_with_args(
                ["estimate", "--graph", barbell_file, "--vertex", "5",
                 "--samples", "20", "--chains", "2", "--shared-cache"]
            )
        assert exit_info.value.code == 2

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="asserts the arena engaged; platforms without shared memory "
        "fall back to private caches by design",
    )
    def test_relative_with_shared_cache(self, barbell_file):
        base = ["relative", "--graph", barbell_file, "--vertices", "5,6,4",
                "--samples", "120", "--seed", "3", "--chains", "2"]
        code_a, out_a = run_cli(base)
        code_b, out_b = run_cli(base + ["--jobs", "2"])
        assert code_a == code_b == 0
        inline, pooled = json.loads(out_a), json.loads(out_b)
        assert pooled["ratios"] == inline["ratios"]
        assert inline["shared_cache"] is False and pooled["shared_cache"] is True

    def test_relative_with_chains(self, barbell_file):
        code, output = run_cli(
            ["relative", "--graph", barbell_file, "--vertices", "5,6,4",
             "--samples", "160", "--seed", "3", "--chains", "4"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["chains"] == 4
        assert payload["rhat"] is not None
        assert "5/6" in payload["ratios"]

    def test_rejects_bad_rhat(self, barbell_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["estimate", "--graph", barbell_file, "--vertex", "5", "--rhat", "0.9"]
            )

    def test_rejects_the_retired_batch_size_flag(self, barbell_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["estimate", "--graph", barbell_file, "--vertex", "5",
                 "--batch-size", "16"]
            )


class TestDatasetsCommand:
    def test_plain_listing(self):
        code, output = run_cli(["datasets"])
        assert code == 0
        assert "email" in output and "barbell" in output

    def test_json_listing(self):
        code, output = run_cli(["datasets", "--json"])
        rows = json.loads(output)
        assert code == 0
        assert any(row["name"] == "road" for row in rows)


class TestBatchCommand:
    """The warm-session JSONL streaming command."""

    def _write_queries(self, tmp_path, queries):
        path = tmp_path / "queries.jsonl"
        path.write_text("".join(json.dumps(q) + "\n" for q in queries))
        return str(path)

    def test_streams_one_json_result_per_line(self, barbell_file, tmp_path):
        queries = [
            {"id": "a", "op": "estimate", "vertex": 5, "samples": 80, "seed": 1},
            {"op": "relative", "vertices": [5, 6, 4], "samples": 100, "seed": 2},
            {"op": "ranking", "k": 2, "samples": 100, "seed": 3},
            {"op": "exact", "top": 2},
        ]
        code, output = run_cli(
            ["batch", "--graph", barbell_file,
             "--queries", self._write_queries(tmp_path, queries)]
        )
        assert code == 0
        records = [json.loads(line) for line in output.splitlines()]
        assert [r["op"] for r in records] == ["estimate", "relative", "ranking", "exact"]
        assert records[0]["id"] == "a"
        assert records[0]["vertex"] == "5"
        assert records[0]["estimate"] >= 0.0
        assert "5/6" in records[1]["ratios"]
        assert len(records[2]["ranking"]) == 2
        assert len(records[3]["scores"]) == 2

    def test_batch_results_match_one_shot_commands(self, barbell_file, tmp_path):
        """One warm session answers exactly what the cold commands answer."""
        code_cold, cold_out = run_cli(
            ["estimate", "--graph", barbell_file, "--vertex", "5",
             "--samples", "80", "--seed", "1", "--jobs", "2"]
        )
        queries = [
            {"op": "estimate", "vertex": 5, "samples": 80, "seed": 1},
            {"op": "estimate", "vertex": 5, "samples": 80, "seed": 1},
        ]
        code, output = run_cli(
            ["batch", "--graph", barbell_file, "--jobs", "2",
             "--queries", self._write_queries(tmp_path, queries)]
        )
        assert code_cold == 0 and code == 0
        cold = json.loads(cold_out)
        first, second = [json.loads(line) for line in output.splitlines()]
        assert first["estimate"] == cold["estimate"]
        assert second["estimate"] == cold["estimate"]

    def test_failing_query_reports_error_and_continues(self, barbell_file, tmp_path):
        queries = [
            {"op": "estimate", "vertex": 5, "samples": 40, "seed": 1},
            {"op": "nope"},
            {"op": "estimate", "vertex": 5, "samples": 40, "seed": 1},
        ]
        code, output = run_cli(
            ["batch", "--graph", barbell_file,
             "--queries", self._write_queries(tmp_path, queries)]
        )
        assert code == 1  # something failed...
        records = [json.loads(line) for line in output.splitlines()]
        assert len(records) == 3  # ...but the stream completed
        assert "error" in records[1]
        assert records[0]["estimate"] == records[2]["estimate"]

    def test_default_chains_apply_to_mcmc_queries_only(self, barbell_file, tmp_path):
        queries = [
            {"op": "estimate", "vertex": 5, "samples": 64, "seed": 1},
            {"op": "estimate", "vertex": 5, "method": "rk", "samples": 30, "seed": 1},
        ]
        code, output = run_cli(
            ["batch", "--graph", barbell_file, "--chains", "2",
             "--queries", self._write_queries(tmp_path, queries)]
        )
        assert code == 0
        mh, rk = [json.loads(line) for line in output.splitlines()]
        assert mh["chains"] == 2
        assert rk["chains"] is None  # baseline untouched by the default

    def test_default_batch_matches_the_cold_command(self, barbell_file, tmp_path):
        """With no --jobs the warm stream runs the plan
        defaults, bit-identical to the cold command."""
        code_cold, cold_out = run_cli(
            ["estimate", "--graph", barbell_file, "--vertex", "5",
             "--samples", "60", "--seed", "1"]
        )
        queries = [{"op": "estimate", "vertex": 5, "samples": 60, "seed": 1}]
        code, output = run_cli(
            ["batch", "--graph", barbell_file,
             "--queries", self._write_queries(tmp_path, queries)]
        )
        assert code_cold == 0 and code == 0
        cold = json.loads(cold_out)
        warm = json.loads(output)
        assert warm["jobs"] == cold["jobs"] is not None
        assert warm["batch_size"] == cold["batch_size"] is not None
        assert warm["estimate"] == cold["estimate"]

    def test_missing_query_file_is_a_clean_cli_error(self, barbell_file, capsys):
        code, _ = run_cli(
            ["batch", "--graph", barbell_file, "--queries", "/nonexistent.jsonl"]
        )
        assert code == 2
        assert "cannot read the query file" in capsys.readouterr().err

    def test_malformed_json_line_reported(self, barbell_file, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"op": "estimate", "vertex": 5}\nnot json\n')
        code, output = run_cli(
            ["batch", "--graph", barbell_file, "--queries", str(path)]
        )
        assert code == 1
        records = [json.loads(line) for line in output.splitlines()]
        assert "error" in records[1]


class TestKernelAndAutoJobs:
    """The one kernel rung in the stamp, and --jobs as a plain worker count."""

    def test_estimate_stamps_the_resolved_kernel(self, barbell_file):
        code, output = run_cli(
            ["estimate", "--graph", barbell_file, "--vertex", "5", "--method",
             "uniform-source", "--samples", "40", "--seed", "1"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["kernel"] == "csr" and payload["kernel_threads"] == 1

    @pytest.mark.parametrize("query", [
        {"op": "estimate", "vertex": 5, "samples": 40, "seed": 7},
        {"op": "relative", "vertices": [1, 5], "samples": 40, "seed": 3},
    ], ids=["estimate", "relative"])
    def test_batch_stamps_the_one_rung(self, barbell_file, tmp_path, query):
        path = tmp_path / "queries.jsonl"
        path.write_text(json.dumps(query) + "\n")
        code, output = run_cli(["batch", "--graph", barbell_file, "--queries", str(path)])
        assert code == 0
        payload = json.loads(output.splitlines()[0])
        assert payload["kernel"] == "csr" and payload["kernel_threads"] == 1

    def test_relative_stamps_the_one_rung(self, barbell_file):
        code, output = run_cli(
            ["relative", "--graph", barbell_file, "--vertices", "1,5",
             "--samples", "40", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["kernel"] == "csr" and payload["kernel_threads"] == 1

    @pytest.mark.parametrize("variable,value", [
        ("REPRO_KERNEL", "compiled"),
        ("REPRO_KERNEL", "fpga"),
        ("REPRO_KERNEL_THREADS", "4"),
        ("REPRO_KERNEL_THREADS", "many"),
    ])
    def test_kernel_never_changes_the_estimate(self, barbell_file, monkeypatch, variable, value):
        """The retired kernel variables are not read: whatever they hold,
        the estimate and the stamp stay those of the one rung."""
        args = ["estimate", "--graph", barbell_file, "--vertex", "5", "--method",
                "uniform-source", "--samples", "40", "--seed", "7"]
        code, reference = run_cli(args)
        monkeypatch.setenv(variable, value)
        code_set, output = run_cli(args)
        assert code == code_set == 0
        payload, expected = json.loads(output), json.loads(reference)
        del payload["elapsed_seconds"], expected["elapsed_seconds"]
        assert payload == expected

    @pytest.mark.parametrize("command", [
        ["exact"],
        ["estimate", "--vertex", "5"],
        ["relative", "--vertices", "1,5"],
        ["batch", "--queries", "-"],
        ["serve"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("flag", [["--kernel", "csr"], ["--kernel-threads", "1"]],
                             ids=["kernel", "kernel-threads"])
    def test_rejects_unknown_kernel(self, barbell_file, command, flag):
        """The kernel flags are gone: every sub-command rejects them."""
        # The same arguments without the flag parse, so the flag is the
        # reason for the rejection.
        build_parser().parse_args(command + ["--graph", barbell_file])
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--graph", barbell_file] + flag)

    @pytest.mark.parametrize("command", [
        ["estimate", "--vertex", "5"],
        ["relative", "--vertices", "1,5"],
        ["exact"],
        ["batch", "--queries", "-"],
        ["serve"],
    ], ids=lambda command: command[0])
    def test_jobs_auto_exits_2(self, barbell_file, command, capsys):
        """The retired 'auto' probe: --jobs takes a positive count only."""
        build_parser().parse_args(command + ["--graph", barbell_file, "--jobs", "2"])
        with pytest.raises(SystemExit) as exc:
            main_with_args(command + ["--graph", barbell_file, "--jobs", "auto"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_serve_rejects_the_retired_invalidation_flag(self, barbell_file):
        build_parser().parse_args(["serve", "--graph", barbell_file])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--graph", barbell_file, "--invalidation", "full"]
            )

    def test_rejects_bad_jobs_string(self, barbell_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["exact", "--graph", barbell_file, "--jobs", "fast"]
            )
