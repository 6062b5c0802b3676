"""Tests for the repro-sim command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "GS"
        assert args.limit == 16
        assert args.utilization == 0.5

    def test_invalid_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "XYZ"])

    def test_invalid_limit(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--limit", "20"])


class TestRunCommand:
    def test_run_prints_report(self, capsys):
        rc = main([
            "run", "--policy", "GS", "--utilization", "0.3",
            "--warmup", "100", "--measured", "500", "--seed", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean response time" in out
        assert "measured gross util" in out

    def test_run_sc_forces_single_cluster(self, capsys):
        rc = main([
            "run", "--policy", "SC", "--utilization", "0.3",
            "--warmup", "100", "--measured", "500",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "component-size limit  None" in out


class TestSweepCommand:
    def test_sweep_prints_curve(self, capsys):
        rc = main([
            "sweep", "--policy", "LS", "--grid", "0.3:0.5:0.2",
            "--warmup", "100", "--measured", "400", "--plot",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "performance ranking" in out
        assert "legend:" in out  # the ASCII plot

    def test_bad_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--grid", "nonsense"])

    def test_sweep_json_export(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main([
            "sweep", "--policy", "GS", "--grid", "0.3:0.3:0.1",
            "--warmup", "100", "--measured", "400",
            "--json", str(out),
        ])
        assert rc == 0
        assert "saved sweep" in capsys.readouterr().out
        from repro.analysis.io import load_sweep

        back = load_sweep(out)
        assert back.label == "GS"
        assert len(back.points) == 1


class TestSweepBackendFlag:
    def test_parser_accepts_auto(self):
        args = build_parser().parse_args(["sweep", "--backend", "auto"])
        assert args.backend == "auto"

    @staticmethod
    def lanes_loaded_by_auto_sweep(grid, monkeypatch, capsys) -> int:
        import repro.sim.batch as batch_module

        calls = {"count": 0}
        real = batch_module.BatchLaneKernel.load

        def counting(self, *args, **kwargs):
            calls["count"] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(batch_module.BatchLaneKernel, "load",
                            counting)
        rc = main([
            "sweep", "--policy", "GS", "--grid", grid,
            "--warmup", "100", "--measured", "400",
            "--backend", "auto", "--no-cache",
        ])
        assert rc == 0
        assert "performance ranking" in capsys.readouterr().out
        return calls["count"]

    def test_auto_on_a_narrow_grid_fuses_the_kernel(self, capsys,
                                                    monkeypatch):
        # The kernel runs one lane at a time, so auto takes it for a
        # one-point grid as for a wide one.
        assert self.lanes_loaded_by_auto_sweep(
            "0.3:0.3:0.1", monkeypatch, capsys) == 1

    def test_auto_on_a_wide_grid_fuses_the_kernel(self, capsys,
                                                  monkeypatch):
        assert self.lanes_loaded_by_auto_sweep(
            "0.3:0.6:0.1", monkeypatch, capsys) > 0


class TestMaxUtilCommand:
    def test_maxutil_prints_values(self, capsys):
        rc = main([
            "maxutil", "--policy", "GS", "--backlog", "30",
            "--warmup", "100", "--measured", "600",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "maximal gross util" in out
        assert "gross/net ratio" in out


class TestTraceCommands:
    def test_trace_roundtrip(self, tmp_path, capsys):
        swf = tmp_path / "log.swf"
        rc = main(["trace", "--jobs", "400", "--seed", "3",
                   "--out", str(swf)])
        assert rc == 0
        assert swf.exists()
        rc = main(["trace-info", str(swf)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "400" in out
        assert "power-of-two sizes" in out


class TestCharacterizeCommand:
    def test_characterize_swf(self, tmp_path, capsys):
        swf = tmp_path / "log.swf"
        main(["trace", "--jobs", "600", "--seed", "4",
              "--out", str(swf)])
        capsys.readouterr()
        rc = main(["characterize", str(swf)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Spearman" in out
        assert "Gini" in out


class TestReportCommand:
    def test_report_sections(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
        out_md = tmp_path / "r.md"
        # Workload section only: fast (no simulations beyond the log).
        rc = main(["report", "--out", str(out_md),
                   "--sections", "workload"])
        assert rc == 0
        assert "Table 1" in out_md.read_text()
        assert "wrote 1 sections" in capsys.readouterr().out


class TestExperimentCommand:
    def test_table2_exact(self, capsys):
        rc = main(["experiment", "table2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.513/0.267/0.009/0.211" in out

    def test_table1_smoke_scale(self, capsys):
        rc = main(["experiment", "table1", "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "0.190" in out

    def test_fig1_smoke_scale(self, capsys):
        rc = main(["experiment", "fig1", "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "#" in out  # bar chart

    def test_fig2_smoke_scale(self, capsys):
        rc = main(["experiment", "fig2", "--scale", "smoke"])
        assert rc == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_table3_smoke_scale(self, capsys):
        rc = main(["experiment", "table3", "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "maximal gross" in out
        assert "gross/net ratios (analytic)" in out

    def test_sensitivity_smoke_scale(self, capsys):
        rc = main(["sensitivity", "--scale", "smoke",
                   "--net-load", "0.3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Sensitivity scan" in out
        assert "extension_factor" in out

    @pytest.mark.slow
    def test_fig4_smoke_scale(self, capsys):
        rc = main(["experiment", "fig4", "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "global" in out

    @pytest.mark.slow
    def test_fig7_smoke_scale(self, capsys):
        rc = main(["experiment", "fig7", "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "gross/net ratio" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestObsFlags:
    def test_obs_flag_bridges_environment(self, tmp_path, monkeypatch,
                                          capsys):
        import os

        from repro.obs.gate import OBS_DIR_ENV, OBS_ENV

        root = tmp_path / "obs"
        monkeypatch.setenv(OBS_DIR_ENV, str(root))
        monkeypatch.delenv(OBS_ENV, raising=False)
        rc = main([
            "sweep", "--policy", "LS", "--grid", "0.4:0.4:0.1",
            "--warmup", "50", "--measured", "100", "--obs",
        ])
        assert rc == 0
        assert OBS_ENV not in os.environ, "flag leaked past the command"
        manifests = list((root / "manifests").glob("*/*.json"))
        assert len(manifests) == 1

    def test_progress_renders_status_line(self, capsys):
        rc = main([
            "sweep", "--policy", "GS", "--grid", "0.3:0.4:0.1",
            "--warmup", "50", "--measured", "100", "--progress",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "sweep GS" in err
        assert "computed" in err
        assert "phase timers:" in err
        assert "simulate" in err

    def test_profile_prints_hotspots(self, capsys):
        rc = main([
            "sweep", "--policy", "GS", "--grid", "0.3:0.3:0.1",
            "--warmup", "50", "--measured", "100", "--profile",
        ])
        assert rc == 0
        assert "cumulative time" in capsys.readouterr().out


class TestObsCommands:
    def _sweep_with_obs(self, monkeypatch, root):
        from repro.obs.gate import OBS_DIR_ENV

        monkeypatch.setenv(OBS_DIR_ENV, str(root))
        rc = main([
            "sweep", "--policy", "LS", "--grid", "0.4:0.4:0.1",
            "--warmup", "50", "--measured", "100", "--obs",
        ])
        assert rc == 0

    def test_summary_aggregates_manifests(self, tmp_path, monkeypatch,
                                          capsys):
        root = tmp_path / "obs"
        self._sweep_with_obs(monkeypatch, root)
        capsys.readouterr()
        rc = main(["obs", "summary", "--dir", str(root)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "manifests          1" in out
        assert "computed=1" in out
        assert "placement_attempts" in out

    def test_summary_empty_root_fails(self, tmp_path, capsys):
        rc = main(["obs", "summary", "--dir", str(tmp_path / "none")])
        assert rc == 1
        assert "no manifests" in capsys.readouterr().out

    def test_summary_of_event_log(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "obs"
        self._sweep_with_obs(monkeypatch, root)
        capsys.readouterr()
        (log,) = (root / "events").glob("*/*.jsonl")
        rc = main(["obs", "summary", "--log", str(log)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro.obs/events/1" in out
        assert "queue_disable" in out

    def test_tail_prints_last_events(self, tmp_path, monkeypatch,
                                     capsys):
        import json

        root = tmp_path / "obs"
        self._sweep_with_obs(monkeypatch, root)
        capsys.readouterr()
        (log,) = (root / "events").glob("*/*.jsonl")
        rc = main(["obs", "tail", str(log), "-n", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all("kind" in json.loads(line) for line in lines)

    def test_tail_missing_log_fails(self, tmp_path, capsys):
        rc = main(["obs", "tail", str(tmp_path / "nope.jsonl")])
        assert rc == 1
        assert "error" in capsys.readouterr().out

    def test_manifest_by_key_prefix(self, tmp_path, monkeypatch,
                                    capsys):
        import json

        root = tmp_path / "obs"
        self._sweep_with_obs(monkeypatch, root)
        capsys.readouterr()
        (path,) = (root / "manifests").glob("*/*.json")
        key = path.stem
        rc = main(["obs", "manifest", key[:10], "--dir", str(root)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["key"] == key
        assert payload["cache_status"] == "computed"

    def test_manifest_unknown_key_fails(self, tmp_path, capsys):
        rc = main(["obs", "manifest", "deadbeef",
                   "--dir", str(tmp_path)])
        assert rc == 1

    def test_profile_command(self, capsys):
        rc = main([
            "obs", "profile", "--policy", "GS", "--warmup", "20",
            "--measured", "50", "--utilization", "0.3", "--top", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profiled GS" in out
        assert "cumulative time" in out

    def test_tail_kind_filter(self, tmp_path, monkeypatch, capsys):
        import json

        root = tmp_path / "obs"
        self._sweep_with_obs(monkeypatch, root)
        capsys.readouterr()
        (log,) = (root / "events").glob("*/*.jsonl")
        rc = main(["obs", "tail", str(log), "-n", "5",
                   "--kind", "departure"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(json.loads(line)["kind"] == "departure"
                   for line in lines)

    def test_tail_truncated_log_warns_but_succeeds(self, tmp_path,
                                                   monkeypatch,
                                                   capsys):
        root = tmp_path / "obs"
        self._sweep_with_obs(monkeypatch, root)
        capsys.readouterr()
        (log,) = (root / "events").glob("*/*.jsonl")
        log.write_bytes(log.read_bytes()[:-25])
        rc = main(["obs", "tail", str(log), "-n", "3"])
        assert rc == 0
        assert "warning:" in capsys.readouterr().out

    def test_summary_truncated_log_warns_but_succeeds(self, tmp_path,
                                                      monkeypatch,
                                                      capsys):
        root = tmp_path / "obs"
        self._sweep_with_obs(monkeypatch, root)
        capsys.readouterr()
        (log,) = (root / "events").glob("*/*.jsonl")
        log.write_bytes(log.read_bytes()[:-25])
        rc = main(["obs", "summary", "--log", str(log)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "warning:" in out

    def test_validate_clean_root(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "obs"
        self._sweep_with_obs(monkeypatch, root)
        capsys.readouterr()
        rc = main(["obs", "validate", str(root)])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_validate_flags_bad_log_nonzero(self, tmp_path, capsys):
        import json as _json

        from repro.obs.events import EVENT_SCHEMA

        log = tmp_path / "bad.jsonl"
        log.write_text(
            _json.dumps({"schema": EVENT_SCHEMA}) + "\n"
            + _json.dumps([{"t": 1.0, "kind": "wormhole"}]) + "\n")
        rc = main(["obs", "validate", str(log)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "bad.jsonl:2" in out
        assert "wormhole" in out

    def test_validate_empty_root_fails(self, tmp_path, capsys):
        rc = main(["obs", "validate", str(tmp_path)])
        assert rc == 1
        assert "no event logs" in capsys.readouterr().out

    def test_dash_snapshot(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "obs"
        self._sweep_with_obs(monkeypatch, root)
        capsys.readouterr()
        rc = main(["obs", "dash", "--dir", str(root)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "runs 1" in out
        assert "per-policy throughput" in out

    def test_trace_export(self, tmp_path, monkeypatch, capsys):
        import json

        root = tmp_path / "obs"
        self._sweep_with_obs(monkeypatch, root)
        capsys.readouterr()
        out_path = tmp_path / "trace.json"
        rc = main(["obs", "trace", "--dir", str(root),
                   "--out", str(out_path)])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_trace_empty_root_fails(self, tmp_path, capsys):
        rc = main(["obs", "trace", "--dir", str(tmp_path / "none"),
                   "--out", str(tmp_path / "trace.json")])
        assert rc == 1
        assert not (tmp_path / "trace.json").exists()
