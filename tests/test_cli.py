"""Tests for the CLI and the claims scorecard machinery.

The default result store is pointed at a per-test tmp directory by the
autouse ``isolated_store_dir`` fixture (see conftest), so these tests
never touch the repo-level ``results/store`` cache.
"""

import pytest

from repro.harness.claims import Claim, render_scorecard
from repro.harness.cli import build_parser, main


class TestParser:
    def test_table_command(self):
        args = build_parser().parse_args(["table", "3"])
        assert args.command == "table" and args.number == 3

    def test_table_rejects_bad_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "em3d", "ascoma"])
        assert args.pressure == 0.7
        assert args.scale == 0.5

    def test_global_scale_flag(self):
        args = build_parser().parse_args(["--scale", "0.25", "sweep", "fft"])
        assert args.scale == 0.25

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quantum_flag(self):
        args = build_parser().parse_args(["run", "fft", "ascoma"])
        assert args.quantum is None  # engine default, hashes like the seed
        args = build_parser().parse_args(
            ["run", "fft", "ascoma", "--quantum", "500"])
        assert args.quantum == 500
        args = build_parser().parse_args(["matrix", "--quantum", "500"])
        assert args.quantum == 500

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.repeats == 3
        assert args.only is None and args.out is None and args.baseline is None

    def test_obs_flags_on_run_and_matrix(self):
        args = build_parser().parse_args(["run", "fft", "ascoma", "--obs"])
        assert args.obs and not args.no_obs
        args = build_parser().parse_args(["matrix", "--no-obs"])
        assert args.no_obs and not args.obs
        # commands without a telemetry surface have no obs attribute
        args = build_parser().parse_args(["table", "1"])
        assert not hasattr(args, "obs")

    def test_obs_subcommand_defaults(self):
        args = build_parser().parse_args(["obs", "summary"])
        assert args.action == "summary"
        assert args.run is None and args.format == "json"
        args = build_parser().parse_args(
            ["obs", "export", "--format", "csv", "--out", "x.csv"])
        assert args.format == "csv" and args.out == "x.csv"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "prune"])


class TestCommands:
    def test_table_1_static(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "Remote Memory Overhead" in out

    def test_table_4_measured(self, capsys):
        assert main(["table", "4"]) == 0
        out = capsys.readouterr().out
        assert "remote:local ratio" in out

    def test_run_command(self, capsys):
        assert main(["--scale", "0.2", "run", "fft", "ascoma",
                     "--pressure", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "ASCOMA" in out

    def test_run_unknown_arch_fails_cleanly(self, capsys):
        assert main(["--scale", "0.2", "run", "fft", "numa-plus"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_unknown_app_fails_cleanly(self, capsys):
        assert main(["--scale", "0.2", "run", "linpack", "ascoma"]) == 2

    def test_figure_command(self, capsys):
        assert main(["--scale", "0.2", "figure", "fft"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out

    def test_analyze_command(self, capsys):
        assert main(["--scale", "0.2", "analyze", "em3d"]) == 0
        out = capsys.readouterr().out
        assert "ideal pressure" in out
        assert "sharing profile" in out

    def test_sweep_command(self, capsys):
        assert main(["--scale", "0.2", "sweep", "fft"]) == 0
        out = capsys.readouterr().out
        assert "ASCOMA" in out and "SCOMA" in out

    def test_sweep_unknown_app_fails_cleanly(self, capsys):
        assert main(["--scale", "0.2", "sweep", "linpack"]) == 2
        assert "error" in capsys.readouterr().err

    def test_figure_unknown_app_fails_cleanly(self, capsys):
        assert main(["--scale", "0.2", "figure", "linpack"]) == 2
        assert "error" in capsys.readouterr().err

    def test_hotpages_command(self, capsys):
        assert main(["--scale", "0.1", "hotpages", "fft", "ascoma",
                     "--pressure", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "page" in out.lower()

    def test_claims_command(self, capsys, monkeypatch):
        # The real matrix takes ~30s even at tiny scale; the scorecard
        # pipeline is what the CLI owns, so stub the matrix run.
        import repro.harness.claims as claims_mod
        canned = [Claim("stub claim", "Section 5", "x", "x", True)]
        monkeypatch.setattr(claims_mod, "validate_all",
                            lambda scale: canned)
        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        assert "1/1 claims reproduced" in out

    def test_claims_command_fails_on_failing_claim(self, capsys,
                                                   monkeypatch):
        import repro.harness.claims as claims_mod
        canned = [Claim("stub claim", "Section 5", "x", "x", True),
                  Claim("broken claim", "Section 5", "x", "y", False)]
        monkeypatch.setattr(claims_mod, "validate_all",
                            lambda scale: canned)
        assert main(["claims"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "1/2 claims reproduced" in out


class TestBenchCommand:
    def test_bench_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        assert main(["bench", "--only", "tracegen:em3d", "--repeats", "1",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "tracegen:em3d" in out and "ev/s" in out
        import json
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == 1
        (entry,) = payload["results"]
        assert entry["name"] == "tracegen:em3d"
        assert entry["events_per_sec"] > 0

    def test_bench_with_baseline_reports_speedup(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        out_path = tmp_path / "bench.json"
        assert main(["bench", "--only", "tracegen:em3d", "--repeats", "1",
                     "--out", str(base)]) == 0
        capsys.readouterr()
        assert main(["bench", "--only", "tracegen:em3d", "--repeats", "1",
                     "--baseline", str(base), "--out", str(out_path)]) == 0
        assert "x vs baseline" in capsys.readouterr().out
        import json
        payload = json.loads(out_path.read_text())
        assert "tracegen:em3d" in payload["speedup_vs_baseline"]
        assert payload["baseline"] == json.loads(base.read_text())

    def test_bench_unknown_filter_fails_cleanly(self, capsys):
        assert main(["bench", "--only", "no-such-bench"]) == 2
        assert "error" in capsys.readouterr().err

    def test_quantum_changes_the_run(self, capsys):
        base = ["--scale", "0.1", "--no-cache", "run", "radix", "ascoma",
                "--pressure", "0.7"]
        assert main(base) == 0
        default = capsys.readouterr().out
        assert main(base + ["--quantum", "50"]) == 0
        tight = capsys.readouterr().out
        # A 40x tighter quantum reorders cross-node events enough to
        # move the counters; identical output would mean the flag is
        # not reaching the engine.
        assert tight != default


class TestMatrixCommand:
    def test_matrix_serial_subset(self, capsys, isolated_store_dir):
        assert main(["--scale", "0.1", "matrix", "--apps", "fft",
                     "--serial"]) == 0
        captured = capsys.readouterr()
        assert "13/13 cells completed" in captured.out
        # every cell was simulated and stored
        assert len(list(isolated_store_dir.glob("*.json"))) == 13
        assert captured.err.count("[   ran]") == 13

    def test_matrix_resumes_from_store(self, capsys):
        assert main(["--scale", "0.1", "matrix", "--apps", "fft",
                     "--serial"]) == 0
        capsys.readouterr()
        assert main(["--scale", "0.1", "matrix", "--apps", "fft",
                     "--serial"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("[cached]") == 13
        assert "[   ran]" not in captured.err

    def test_matrix_unknown_app_fails_cleanly(self, capsys):
        assert main(["matrix", "--apps", "linpack"]) == 2
        assert "unknown app" in capsys.readouterr().err

    def test_matrix_reports_failing_cell(self, capsys, monkeypatch):
        from repro.runtime import RunSpec
        real = RunSpec.execute

        def sabotaged(spec, check=False):
            if spec.arch == "SCOMA":
                raise RuntimeError("injected failure")
            return real(spec, check=check)

        monkeypatch.setattr(RunSpec, "execute", sabotaged)
        assert main(["--scale", "0.1", "matrix", "--apps", "fft",
                     "--serial"]) == 1
        captured = capsys.readouterr()
        assert "10/13 cells completed" in captured.out
        assert "fft/SCOMA" in captured.out and "injected failure" in captured.out

    def test_no_cache_leaves_store_empty(self, capsys, isolated_store_dir):
        assert main(["--scale", "0.2", "--no-cache", "run", "fft",
                     "ascoma", "--pressure", "0.5"]) == 0
        assert not isolated_store_dir.exists()


class TestStoreCommand:
    def test_info_empty(self, capsys, isolated_store_dir):
        assert main(["store", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out
        assert str(isolated_store_dir) in out

    def test_list_and_clear_after_runs(self, capsys):
        assert main(["--scale", "0.2", "run", "fft", "ascoma",
                     "--pressure", "0.5"]) == 0
        capsys.readouterr()
        assert main(["store", "list"]) == 0
        assert "fft/ASCOMA@0.5" in capsys.readouterr().out
        assert main(["store", "clear"]) == 0
        assert "removed 1 artifact(s)" in capsys.readouterr().out
        assert main(["store", "list"]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_cached_rerun_hits_store(self, capsys):
        args = ["--scale", "0.2", "run", "fft", "ascoma",
                "--pressure", "0.5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert second == first  # identical output, served from the store


class TestObsCommand:
    RUN_ARGS = ["--scale", "0.1", "run", "em3d", "ascoma",
                "--pressure", "0.9", "--obs"]

    def test_run_with_obs_writes_telemetry(self, capsys, isolated_obs_dir):
        assert main(self.RUN_ARGS) == 0
        captured = capsys.readouterr()
        assert "telemetry:" in captured.err
        runs = list(isolated_obs_dir.glob("*.jsonl"))
        assert len(runs) == 1

    def test_obs_summary_renders_latest_run(self, capsys):
        assert main(self.RUN_ARGS) == 0
        capsys.readouterr()
        assert main(["obs", "summary"]) == 0
        out = capsys.readouterr().out
        assert "telemetry run" in out
        assert "simulate" in out and "backoff" in out

    def test_obs_timeline_shows_backoff_trajectory(self, capsys):
        assert main(self.RUN_ARGS) == 0
        capsys.readouterr()
        assert main(["obs", "timeline", "--cell", "em3d"]) == 0
        out = capsys.readouterr().out
        assert "em3d/ASCOMA@90%" in out
        assert "thr-raise" in out and "int-stretch" in out

    def test_obs_export_smoke(self, capsys, tmp_path):
        """CI satellite: export both formats, --out and stdout paths."""
        import csv
        import json
        assert main(self.RUN_ARGS) == 0
        capsys.readouterr()
        assert main(["obs", "export"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert any(r.get("rec") == "backoff" for r in records)
        out_path = tmp_path / "backoff.csv"
        assert main(["obs", "export", "--format", "csv",
                     "--out", str(out_path)]) == 0
        assert "exported" in capsys.readouterr().out
        rows = list(csv.DictReader(out_path.open()))
        assert rows and rows[0]["spec"].startswith("em3d/ASCOMA")
        assert any(r["threshold_delta"] == "raise" for r in rows)

    def test_obs_without_runs_fails_cleanly(self, capsys):
        assert main(["obs", "summary"]) == 2
        assert "--obs" in capsys.readouterr().err

    def test_env_var_enables_and_no_obs_wins(self, capsys, monkeypatch,
                                             isolated_obs_dir):
        monkeypatch.setenv("REPRO_OBS", "1")
        args = ["--scale", "0.1", "run", "fft", "ascoma", "--pressure", "0.5"]
        assert main(args + ["--no-obs"]) == 0
        assert not list(isolated_obs_dir.glob("*.jsonl"))
        assert main(args) == 0
        assert len(list(isolated_obs_dir.glob("*.jsonl"))) == 1

    def test_obs_off_is_the_default(self, capsys, isolated_obs_dir):
        assert main(["--scale", "0.1", "run", "fft", "ascoma",
                     "--pressure", "0.5"]) == 0
        assert "telemetry" not in capsys.readouterr().err
        assert not isolated_obs_dir.exists()


class TestScorecard:
    def test_render(self):
        claims = [
            Claim("thing holds", "Section 5", "x < 1", "x = 0.5", True),
            Claim("other thing", "Section 3", "y > 2", "y = 1", False),
        ]
        out = render_scorecard(claims)
        assert "PASS" in out and "FAIL" in out
        assert "1/2 claims reproduced" in out

    def test_empty_scorecard(self):
        out = render_scorecard([])
        assert "0/0" in out


class TestSamplingCli:
    """Sampling flags and the ingest / sample-report commands."""

    def test_sample_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "fft", "ascoma", "--sample-rate", "4",
             "--sample-pages", "0.5", "--sample-seed", "7",
             "--sample-unit", "visit"])
        assert (args.sample_rate, args.sample_pages,
                args.sample_seed, args.sample_unit) == (4, 0.5, 7, "visit")
        args = build_parser().parse_args(["matrix", "--sample-rate", "10"])
        assert args.sample_rate == 10 and args.sample_unit == "sweep"

    def test_ingest_defaults(self):
        args = build_parser().parse_args(["ingest", "trace.csv"])
        assert args.format == "csv" and args.barriers == 1
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "t.csv", "--format", "bin"])

    def test_sampled_run_prints_estimates(self, capsys):
        assert main(["--scale", "0.2", "run", "fft", "scoma",
                     "--pressure", "0.9", "--sample-rate", "4"]) == 0
        out = capsys.readouterr().out
        assert "sampled" in out and "estimated full trace" in out

    def test_full_run_has_no_sampling_line(self, capsys):
        assert main(["--scale", "0.2", "run", "fft", "scoma",
                     "--pressure", "0.9"]) == 0
        assert "sampled" not in capsys.readouterr().out

    def test_ingest_then_run_roundtrip(self, capsys):
        import os
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "external_small.csv")
        assert main(["ingest", fixture, "--barriers", "2"]) == 0
        out = capsys.readouterr().out
        assert "registered as: ext/external_small@" in out
        app_id = [line.split(": ", 1)[1] for line in out.splitlines()
                  if line.startswith("registered as")][0]
        assert main(["run", app_id, "ascoma", "--pressure", "0.9"]) == 0
        assert "execution time" in capsys.readouterr().out

    def test_unregistered_external_app_fails_cleanly(self, capsys):
        assert main(["run", "ext/ghost@" + "0" * 16, "ascoma"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "repro ingest" in err

    def test_ingest_without_trace_store_fails_cleanly(self, capsys):
        import os
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "external_small.csv")
        assert main(["--no-trace-cache", "ingest", fixture]) == 2
        assert "trace store" in capsys.readouterr().err
