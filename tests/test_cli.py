"""Command-line interface."""

import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro

from repro.apps import APPS
from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_app_defaults(self):
        args = build_parser().parse_args(["run-app", "temp-alarm"])
        assert args.system == "CB-P"
        assert args.events == 10

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-app", "nonexistent"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])
        # The campaign is `run-all`; `all` is not an experiment name.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "all"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestArgValidation:
    def test_jobs_zero_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-all", "--jobs", "0"])

    def test_jobs_negative_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-all", "--jobs", "-2"])

    def test_jobs_positive_accepted(self):
        args = build_parser().parse_args(["run-all", "--jobs", "3"])
        assert args.jobs == 3

    def test_metrics_out_missing_directory_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "fig03", "--metrics-out", "/no/such/dir/m.jsonl"]
            )

    def test_trace_out_existing_directory_accepted(self, tmp_path):
        args = build_parser().parse_args(
            ["experiment", "fig03", "--trace-out", str(tmp_path / "t.jsonl")]
        )
        assert args.trace_out == tmp_path / "t.jsonl"

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_malformed_jobs_env_is_a_usage_error(self, value, monkeypatch, capsys):
        """``REPRO_JOBS`` follows the ``--jobs`` rule: exit 2, before any
        experiment runs."""
        monkeypatch.setenv("REPRO_JOBS", value)
        assert main(["run-all", "--scale", "0.05", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert "REPRO_JOBS" in captured.err
        assert captured.out == ""

    def test_run_all_rejects_bad_jobs_programmatically(self):
        from repro.errors import ConfigurationError
        from repro.experiments import run_all

        with pytest.raises(ConfigurationError):
            run_all.main(jobs=0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
    def test_run_all_rejects_bad_scale_programmatically(self, scale, monkeypatch):
        """The library checks ``scale`` as the CLI does, before any cache
        key or declared scenario is computed."""
        from repro.errors import ConfigurationError
        from repro.experiments import run_all

        def forbidden(*args, **kwargs):
            raise AssertionError("cache keys computed for a rejected scale")

        monkeypatch.setattr(run_all, "ResultCache", forbidden)
        monkeypatch.setattr(run_all._REGISTRY, "suite", forbidden)
        with pytest.raises(ConfigurationError, match="scale"):
            run_all.main(scale=scale, jobs=1, use_cache=False)

    @pytest.mark.parametrize("rate", ["0", "-1", "2.5"])
    def test_serve_quota_rate_parses_finite_values(self, rate):
        """Any finite rate parses; ``<= 0`` still switches quotas off."""
        args = build_parser().parse_args(["serve", "--quota-rate", rate])
        assert args.quota_rate == float(rate)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--spec", "s.json", "--horizon", "nan"],
            ["run", "--spec", "s.json", "--horizon", "-5"],
            ["run", "--spec", "s.json", "--horizon", "inf"],
            ["run", "--spec", "s.json", "--horizon", "0"],
            ["run-app", "csr", "--horizon", "nan"],
            ["run-app", "csr", "--horizon", "-5"],
            ["run-app", "csr", "--horizon", "inf"],
            ["run-app", "csr", "--horizon", "0"],
            ["run-app", "csr", "--events", "-1"],
            ["run-app", "csr", "--events", "0"],
            ["submit", "--spec", "s.json", "--horizon", "nan"],
            ["submit", "--spec", "s.json", "--horizon", "-5"],
            ["submit", "--spec", "s.json", "--horizon", "inf"],
            ["submit", "--spec", "s.json", "--horizon", "0"],
            ["submit", "--spec", "s.json", "--timeout", "nan"],
            ["submit", "--spec", "s.json", "--timeout", "-1"],
            ["experiment", "fig08", "--scale", "nan"],
            ["experiment", "fig08", "--scale", "-1"],
            ["experiment", "fig08", "--scale", "0"],
            ["run-all", "--scale", "nan"],
            ["run-all", "--scale", "-1"],
            ["run-all", "--scale", "inf"],
            ["spec", "dump", "fig08", "--scale", "nan"],
            ["spec", "dump", "fig08", "--scale", "-1"],
            ["serve", "--job-ttl", "-1"],
            ["serve", "--job-ttl", "nan"],
            ["serve", "--batch-window", "-1"],
            ["serve", "--batch-window", "inf"],
            ["serve", "--quota-burst", "-5"],
            ["serve", "--quota-burst", "nan"],
            ["serve", "--quota-rate", "nan"],
            ["serve", "--quota-rate", "inf"],
        ],
        ids=lambda argv: "-".join(argv[:1] + argv[-2:]),
    )
    def test_bad_run_inputs_are_usage_errors(self, argv, monkeypatch, capsys):
        """A NaN, infinite or out-of-range number (horizon, event count,
        scale, timeout, service TTL/window/burst) exits 2 before any
        simulation, request or server starts."""
        import urllib.request

        import repro.experiments.registry
        import repro.experiments.run_all
        import repro.service.http
        import repro.service.runner

        def forbidden(*args, **kwargs):
            raise AssertionError("work started for a rejected input")

        monkeypatch.setattr(repro.service.runner, "run_scenario_job", forbidden)
        monkeypatch.setattr(urllib.request, "urlopen", forbidden)
        monkeypatch.setattr(
            repro.experiments.registry, "run_experiment", forbidden
        )
        monkeypatch.setattr(repro.experiments.run_all, "main", forbidden)
        monkeypatch.setattr(repro.service.http, "run_service", forbidden)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err

    def test_run_all_rejects_bad_metrics_out(self):
        from repro.errors import ConfigurationError
        from repro.experiments import run_all

        with pytest.raises(ConfigurationError):
            run_all.main(metrics_out="/no/such/dir/m.jsonl")


class TestListCommand:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for app in APPS:
            assert app in out
        assert "CB-P" in out and "fig08" in out


class TestRunApp:
    def test_run_temp_alarm(self, capsys):
        code = main(
            ["run-app", "temp-alarm", "--events", "2", "--horizon", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TempAlarm on CB-P" in out
        assert "events reported" in out

    def test_run_on_fixed_system(self, capsys):
        code = main(
            [
                "run-app",
                "grc-fast",
                "--system",
                "Fixed",
                "--events",
                "2",
                "--horizon",
                "60",
            ]
        )
        assert code == 0
        assert "GestureFast on Fixed" in capsys.readouterr().out

    def test_run_spec_with_non_numeric_workload_is_a_typed_error(
        self, tmp_path, capsys
    ):
        spec = tmp_path / "ta.json"
        assert main(["spec", "dump", "temp-alarm", "--out", str(spec)]) == 0
        data = json.loads(spec.read_text())
        data["workload"]["mean_interarrival"] = "abc"
        spec.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["run", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "workload field 'mean_interarrival' must be a number" in err
        assert "'abc'" in err

    def test_export_writes_json(self, tmp_path, capsys):
        export = tmp_path / "trace.json"
        code = main(
            [
                "run-app",
                "csr",
                "--events",
                "2",
                "--horizon",
                "60",
                "--export",
                str(export),
            ]
        )
        assert code == 0
        data = json.loads(export.read_text())
        assert "samples" in data and "counters" in data

    def test_metrics_out_scope_is_the_app_name(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        code = main(
            [
                "run-app", "grc-compact", "--events", "2", "--horizon", "60",
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in metrics.read_text().splitlines()]
        assert records
        assert {record["scope"] for record in records} == {"grc-compact"}

    def test_backend_flag_is_a_usage_error(self, capsys):
        """run-app is the single-device scalar path; grid experiments
        take --backend (`experiment NAME --backend vec`)."""
        with pytest.raises(SystemExit) as exc:
            main(["run-app", "csr", "--backend", "vec"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExperimentCommand:
    def test_characterization(self, capsys):
        assert main(["experiment", "characterization"]) == 0
        assert "switch retention" in capsys.readouterr().out

    def test_fig03(self, capsys):
        assert main(["experiment", "fig03"]) == 0
        assert "Atomicity (Mops)" in capsys.readouterr().out

    def test_campaigns_listed(self, capsys):
        assert main(["list"]) == 0
        assert "campaigns" in capsys.readouterr().out

    def test_metrics_out_writes_parseable_jsonl(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        code = main(
            ["experiment", "fig03", "--metrics-out", str(metrics)]
        )
        assert code == 0
        assert "metrics written to" in capsys.readouterr().out
        records = [
            json.loads(line) for line in metrics.read_text().splitlines()
        ]
        # Even analytic experiments emit the run_experiment baseline
        # metrics, so the export is never empty.
        assert records
        for record in records:
            assert record["record"] == "metric"
            assert record["scope"] == "fig03"
        names = {record["name"] for record in records}
        assert {"experiment.runs", "experiment.output_chars"} <= names

    def test_run_app_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "run-app",
                "temp-alarm",
                "--events",
                "2",
                "--horizon",
                "120",
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(
            r["record"] == "event" and r["name"] == "reboot" for r in records
        )


class TestUnifiedVerbs:
    """The shared flag vocabulary across run/run-app/experiment/serve/submit."""

    def test_serve_parses_with_shared_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--jobs", "2", "--inject", "f.json"]
        )
        assert args.command == "serve"
        assert args.port == 9000 and args.jobs == 2
        assert args.inject == "f.json"
        assert args.queue_limit == 16 and args.quota_rate == 32.0

    def test_submit_parses_with_shared_flags(self):
        args = build_parser().parse_args(
            [
                "submit", "--spec", "s.json", "--backend", "vec",
                "--inject", "f.json", "--url", "http://h:1",
            ]
        )
        assert args.command == "submit"
        assert args.spec == "s.json" and args.backend == "vec"
        assert args.inject == "f.json" and args.url == "http://h:1"

    def test_run_gained_backend_flag(self):
        args = build_parser().parse_args(
            ["run", "--spec", "s.json", "--backend", "vec"]
        )
        assert args.backend == "vec"

    def test_shared_flags_mean_the_same_everywhere(self):
        for verb, extra in (
            (["run", "--spec", "s.json"], []),
            (["run-app", "csr"], []),
            (["experiment", "fig03"], []),
            (["submit", "--spec", "s.json"], []),
        ):
            args = build_parser().parse_args(
                verb + extra + ["--metrics-out", "m.jsonl"]
            )
            assert str(args.metrics_out) == "m.jsonl"

    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info" and args.check is None
        args = build_parser().parse_args(
            ["info", "--check", "a.json", "b.json", "--backend", "vec"]
        )
        assert args.check == ["a.json", "b.json"] and args.backend == "vec"

    def test_info_reports_api_version(self, capsys):
        import repro

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out
        assert repro.__api_version__ in out
        assert "scalar" in out

    def test_info_advertises_no_experiment_backend(self, capsys):
        """`--backend` picks a scenario's engine on `run`, `submit` and
        `info --check` only; `info` names no experiment route."""
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro experiment" not in out and "run-all" not in out
        verbs = build_parser()._subparsers._group_actions[0].choices
        for verb in ("experiment", "run-all"):
            assert all(a.dest != "backend" for a in verbs[verb]._actions), verb
        for verb in ("run", "submit", "info"):
            assert any(a.dest == "backend" for a in verbs[verb]._actions), verb

    def test_vec_info_verb_removed(self, capsys):
        # `info` prints the matrix (test_info_reports_api_version,
        # test_vec_backend.TestCli::test_vec_info_prints_matrix).
        with pytest.raises(SystemExit) as exc:
            main(["vec-info"])
        assert exc.value.code == 2
        assert "invalid choice: 'vec-info'" in capsys.readouterr().err

    def test_spec_check_verb_removed(self, tmp_path, capsys):
        # `info --check` validates (test_info_check_validates and
        # test_spec.py::test_cli_spec_check_passes_goldens).
        spec = tmp_path / "ok.json"
        assert main(["spec", "dump", "temp-alarm", "--out", str(spec)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["spec", "check", str(spec)])
        assert exc.value.code == 2
        assert "invalid choice: 'check'" in capsys.readouterr().err

    def test_campaign_report_verb_removed(self, capsys):
        # A warm `run-all --jobs N` prints the same report
        # (test_dag_resume.py::test_warm_rerun_is_the_offline_report).
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "report", "x"])
        assert exc.value.code == 2
        assert "invalid choice: 'campaign'" in capsys.readouterr().err

    def test_info_check_validates(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        assert main(["spec", "dump", "csr", "--out", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a scenario\"}")
        capsys.readouterr()
        assert main(["info", "--check", str(good)]) == 0
        assert main(["info", "--check", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


class TestSubmitErrors:
    def test_submit_unreachable_service(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        assert main(["spec", "dump", "temp-alarm", "--out", str(spec)]) == 0
        capsys.readouterr()
        code = main(
            [
                "submit", "--spec", str(spec),
                "--url", "http://127.0.0.1:1",  # nothing listens on port 1
                "--timeout", "2",
            ]
        )
        assert code == 1
        assert "cannot reach service" in capsys.readouterr().err

    def test_submit_missing_spec_file(self, capsys):
        code = main(["submit", "--spec", "/nonexistent/spec.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestRunAllVerb:
    """`repro run-all`: the campaign as a first-class verb."""

    def test_parses_with_campaign_flags(self):
        args = build_parser().parse_args(
            [
                "run-all", "--jobs", "3",
                "--scale", "0.5", "--inject", "f.json", "--no-cache",
            ]
        )
        assert args.command == "run-all"
        assert args.jobs == 3
        assert args.scale == 0.5 and args.inject == "f.json"
        assert args.no_cache is True

    def test_forwards_to_the_experiment_all_path(self, monkeypatch):
        from repro.experiments import run_all

        seen = {}

        def fake_main(**kwargs):
            seen.update(kwargs)

        monkeypatch.setattr(run_all, "main", fake_main)
        code = main(["run-all", "--serial"])
        assert code == 0
        assert "backend" not in seen
        assert seen["jobs"] == 1  # --serial forces one worker

    def test_resume_flag_is_a_usage_error(self, capsys):
        """A rerun over the cache is the resume; there is no flag."""
        with pytest.raises(SystemExit) as exc:
            main(["run-all", "--resume"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--inject", "/no/such/faults.json"],
            ["--jobs", "3"],
            ["--serial"],
            ["--no-cache"],
            ["--clear-cache"],
            ["--resume"],
            ["--backend", "vec"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_campaign_flags_are_usage_errors_on_experiment(self, flags, capsys):
        """`experiment NAME` runs one figure; campaign flags belong to
        `run-all` and must not be accepted and then ignored.  No
        experiment takes `--backend`: each has one route."""
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig03", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["vec", "scalar"])
    def test_backend_flag_is_a_usage_error_on_run_all(self, backend, capsys):
        """The campaign runs every experiment on its one route."""
        with pytest.raises(SystemExit) as exc:
            main(["run-all", "--backend", backend])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_gained_ttl_and_batch_window_flags(self):
        args = build_parser().parse_args(
            ["serve", "--job-ttl", "300", "--batch-window", "0.5"]
        )
        assert args.job_ttl == 300.0
        assert args.batch_window == 0.5
        defaults = build_parser().parse_args(["serve"])
        assert defaults.job_ttl is None and defaults.batch_window == 0.0

    def test_fleet_experiment_is_registered(self):
        args = build_parser().parse_args(["experiment", "fleet"])
        assert args.name == "fleet"


class TestRunAllModule:
    """`python -m repro.experiments.run_all` is `repro run-all` at paper
    scale, through the same parser."""

    def test_bad_jobs_is_a_usage_error(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.run_all", "--jobs", "0"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "usage: repro run-all" in proc.stderr
        assert "must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv,scale", [([], 1.0), (["--scale", "0.1"], 0.1)]
    )
    def test_defaults_to_paper_scale(self, monkeypatch, argv, scale):
        from repro.experiments import run_all

        seen = {}
        monkeypatch.setattr(run_all, "main", lambda **kwargs: seen.update(kwargs))
        monkeypatch.setattr(sys, "argv", ["run_all", "--serial", *argv])
        with warnings.catch_warnings():
            # runpy notes that the module is already imported.
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SystemExit) as exc:
                runpy.run_module("repro.experiments.run_all", run_name="__main__")
        assert exc.value.code == 0
        assert seen["scale"] == scale
        assert seen["jobs"] == 1
