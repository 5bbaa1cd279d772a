"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_point_defaults(self):
        args = build_parser().parse_args(
            ["point", "--model", "llama-2-7b", "--hardware", "h100",
             "--framework", "vllm"]
        )
        assert args.model == "llama-2-7b"  # validated, passed through as typed
        assert args.batch_size == 1
        assert args.input_tokens == 1024


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "LLaMA-3-8B" in out
        assert "SN40L" in out
        assert "vLLM" in out
        assert "fig1a" in out

    def test_point(self, capsys):
        code = main(
            [
                "point",
                "--model", "LLaMA-3-8B",
                "--hardware", "A100",
                "--framework", "vLLM",
                "--batch-size", "4",
                "--input-tokens", "128",
                "--output-tokens", "128",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "TTFT" in out

    def test_point_oom_exit_code(self, capsys):
        code = main(
            [
                "point",
                "--model", "LLaMA-2-70B",
                "--hardware", "A100",
                "--framework", "llama.cpp",
            ]
        )
        assert code == 1
        assert "OOM" in capsys.readouterr().out

    def test_run_experiment(self, capsys):
        assert main(["run", "tab1"]) == 0
        out = capsys.readouterr().out
        assert "config_mismatches" in out

    def test_run_with_table(self, capsys):
        assert main(["run", "tab2", "--table"]) == 0
        out = capsys.readouterr().out
        assert "memory_gb" in out

    def test_dashboard(self, tmp_path, capsys):
        target = tmp_path / "dash.html"
        assert main(["dashboard", "--output", str(target)]) == 0
        assert target.exists()

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--output", str(target)]) == 0
        content = target.read_text(encoding="utf-8")
        assert content.startswith("# EXPERIMENTS")
        assert "fig1a" in content


class TestAnalyzeCommand:
    def test_analyze_prints_bottleneck(self, capsys):
        code = main(
            [
                "analyze",
                "--model", "LLaMA-2-7B",
                "--hardware", "A100",
                "--framework", "vLLM",
                "--batch-size", "32",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "decode" in out

    def test_analyze_oom_exit_code(self, capsys):
        # llama.cpp's runtime buffers push 70B past the A100 node (Fig. 32).
        code = main(
            [
                "analyze",
                "--model", "LLaMA-2-70B",
                "--hardware", "A100",
                "--framework", "llama.cpp",
            ]
        )
        assert code == 1
        assert "cannot analyze" in capsys.readouterr().out


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        code = main(["validate", "--points", "4", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "validated 4 points" in out


class TestProfileCommand:
    _ARGS = [
        "profile",
        "--model", "LLaMA-3-8B",
        "--hardware", "A100",
        "--framework", "vLLM",
        "--batch-size", "4",
        "--input-tokens", "128",
        "--output-tokens", "32",
    ]

    def test_profile_writes_deterministic_json(self, capsys, tmp_path):
        import json

        payloads = []
        for run in range(2):
            path = tmp_path / f"profile{run}.json"
            code = main([*self._ARGS, "--output", str(path)])
            assert code == 0
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]
        profile = json.loads(payloads[0])
        assert profile["model"] == "LLaMA-3-8B"
        assert profile["dominant"] is not None
        assert [p["phase"] for p in profile["phases"]] == ["prefill", "decode"]
        assert len(profile["requests"]) == 4
        out = capsys.readouterr().out
        assert "cost profile" in out
        assert "MFU" in out and "MBU" in out

    def test_profile_counter_tracks_in_trace(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "profile_trace.json"
        code = main([
            *self._ARGS,
            "--output", str(tmp_path / "profile.json"),
            "--trace-output", str(trace_path),
        ])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        counters = {
            e["name"] for e in trace["traceEvents"]
            if e.get("ph") == "C" and e.get("cat") == "profile"
        }
        # Profile counters export namespaced so multi-replica traces keep
        # one utilization lane per replica pid.
        assert counters >= {
            "profile/mfu", "profile/mbu", "profile/tokens_per_s",
            "profile/watts", "profile/joules_per_token",
        }

    def test_profile_oom_exit_code(self, capsys):
        code = main([
            "profile",
            "--model", "LLaMA-2-70B",
            "--hardware", "A100",
            "--framework", "llama.cpp",
        ])
        assert code == 1
        assert "OOM" in capsys.readouterr().out


class TestNumRequestsValidation:
    _ARGS = [
        "--model", "LLaMA-3-8B",
        "--hardware", "A100",
        "--framework", "vLLM",
        "--batch-size", "2",
        "--input-tokens", "64",
        "--output-tokens", "8",
        "--rate", "4",
    ]

    @pytest.mark.parametrize("command", ["trace", "profile"])
    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_non_positive_count_is_a_usage_error(
        self, command, bad, capsys, tmp_path
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([
                command, *self._ARGS, "--num-requests", bad,
                "--output", str(tmp_path / "out.json"),
            ])
        assert excinfo.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert errors == [
            f"llm-inference-bench {command}: error: argument --num-requests: "
            f"must be >= 1, got {bad}"
        ]
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["trace", "profile"])
    def test_explicit_count_is_honored(self, command, capsys, tmp_path):
        import json

        path = tmp_path / "out.json"
        code = main([
            command, *self._ARGS, "--num-requests", "1", "--output", str(path),
        ])
        assert code == 0
        payload = json.loads(path.read_text())
        if command == "profile":
            assert len(payload["requests"]) == 1
        else:
            assert payload["otherData"]["requests"] == 1

    def test_default_is_four_batches(self, capsys, tmp_path):
        import json

        path = tmp_path / "profile.json"
        assert main(["profile", *self._ARGS, "--output", str(path)]) == 0
        assert len(json.loads(path.read_text())["requests"]) == 8


class TestInputErrors:
    """Bad names and non-positive counts are usage errors: exit 2 with
    one ``error:`` line, never a traceback."""

    _DEP = "--model Mistral-7B --hardware A100 --framework vLLM"

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            ("cluster --model NoSuchModel --hardware A100 --framework vLLM",
             "--model: unknown model 'NoSuchModel'; known models: "),
            ("point --model LLaMA-2-7B --hardware TPU --framework vLLM",
             "--hardware: unknown hardware 'TPU'; known platforms: "),
            ("analyze --model LLaMA-2-7B --hardware A100 --framework NoFw",
             "--framework: unknown framework 'NoFw'; known frameworks: "),
            ("scenario run chat-sharegpt --model NoSuchModel",
             "--model: unknown model 'NoSuchModel'"),
            (f"cluster {_DEP} --replicas 0", "--replicas: must be >= 1, got 0"),
            (f"cluster {_DEP} --max-concurrency 0",
             "--max-concurrency: must be >= 1, got 0"),
            (f"cluster {_DEP} --num-requests 0",
             "--num-requests: must be >= 1, got 0"),
            ("scenario run chat-sharegpt --replicas 0",
             "--replicas: must be >= 1, got 0"),
            ("scenario run chat-sharegpt --max-concurrency -1",
             "--max-concurrency: must be >= 1, got -1"),
            (f"cluster {_DEP} --rate nan",
             "--rate: must be a finite number > 0, got nan"),
            (f"cluster {_DEP} --rate inf",
             "--rate: must be a finite number > 0, got inf"),
            (f"cluster {_DEP} --rate -1",
             "--rate: must be a finite number > 0, got -1"),
            (f"cluster {_DEP} --mean-input-tokens 0",
             "--mean-input-tokens: must be >= 1, got 0"),
            (f"cluster {_DEP} --mean-output-tokens 0",
             "--mean-output-tokens: must be >= 1, got 0"),
            (f"trace {_DEP} --rate 0",
             "--rate: must be a finite number > 0, got 0"),
            (f"profile {_DEP} --rate nan",
             "--rate: must be a finite number > 0, got nan"),
            ("optimize --target-rate nan",
             "--target-rate: must be a finite number > 0, got nan"),
            ("optimize --target-rate=-inf",
             "--target-rate: must be a finite number > 0, got -inf"),
        ],
    )
    def test_exit_2_with_one_error_line(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv.split())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert "Traceback" not in err and len(errors) == 1
        assert f"error: argument {message}" in errors[0]


class TestGoldenChaosProfile:
    """A profiled, telemetry-attached chaos run (crash + retries + the
    burn-rate autoscaler) must keep producing the committed profile and
    telemetry JSON byte for byte, so changes to the profiler or the
    telemetry bus cannot drift their numbers unnoticed.  The golden pins
    both execution cores: the default vector core and its bit-identical
    scalar reference."""

    @pytest.mark.parametrize("core", ["vector", "scalar"])
    def test_profile_and_telemetry_match_golden(
        self, core, capsys, tmp_path, monkeypatch
    ):
        from pathlib import Path

        monkeypatch.setenv("REPRO_ENGINE_CORE", core)

        data = Path(__file__).parent / "data"
        profile = tmp_path / "profile.json"
        telemetry = tmp_path / "telemetry.json"
        code = main([
            "cluster",
            "--model", "Mistral-7B", "--hardware", "A100", "--framework", "vLLM",
            "--replicas", "2", "--rate", "8", "--num-requests", "48",
            "--seed", "7", "--max-concurrency", "8",
            "--faults", str(data / "golden_chaos_faults.json"),
            "--autoscale", "burn-rate", "--autoscale-max", "4",
            "--profile-output", str(profile),
            "--telemetry-output", str(telemetry),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "retries 12" in out  # the crash displaced work
        assert profile.read_bytes() == (
            data / "golden_chaos_profile.json"
        ).read_bytes()
        assert telemetry.read_bytes() == (
            data / "golden_chaos_telemetry.json"
        ).read_bytes()


class TestRunExportFlags:
    def test_metrics_and_profile_outputs_are_deterministic(
        self, capsys, tmp_path
    ):
        import json

        payloads = []
        for run in range(2):
            metrics_path = tmp_path / f"metrics{run}.json"
            profile_path = tmp_path / f"profile{run}.json"
            code = main([
                "run", "fig7",
                "--metrics-output", str(metrics_path),
                "--profile-output", str(profile_path),
            ])
            assert code == 0
            payloads.append(
                (metrics_path.read_bytes(), profile_path.read_bytes())
            )
        assert payloads[0] == payloads[1]
        metrics = json.loads(payloads[0][0])
        assert "fig7" in metrics
        assert metrics["fig7"]["rows"]
        profiles = json.loads(payloads[0][1])
        # Every profiled row names a mechanism from the shared taxonomy.
        assert profiles["fig7"]
        for row in profiles["fig7"]:
            assert row["prefill"]["dominant"]
            assert row["decode"]["dominant"]
            assert row["end_to_end_bottleneck"]


class TestClusterExportFlags:
    _ARGS = [
        "cluster",
        "--model", "Mistral-7B",
        "--hardware", "A100",
        "--framework", "vLLM",
        "--replicas", "2",
        "--rate", "6",
        "--num-requests", "16",
        "--seed", "5",
        "--max-concurrency", "8",
    ]

    @pytest.mark.parametrize("flag", ["--mean-input-tokens", "--mean-output-tokens"])
    @pytest.mark.parametrize("bad", ["0", "-5"])
    def test_non_positive_mean_tokens_rejected(self, flag, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*self._ARGS, flag, bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: argument {flag}: must be >= 1, got {bad}" in err

    def test_cluster_export_flags_are_deterministic(self, capsys, tmp_path):
        import json

        payloads = []
        for run in range(2):
            metrics_path = tmp_path / f"metrics{run}.json"
            profile_path = tmp_path / f"profile{run}.json"
            code = main([
                *self._ARGS,
                "--metrics-output", str(metrics_path),
                "--profile-output", str(profile_path),
            ])
            assert code == 0
            payloads.append(
                (metrics_path.read_bytes(), profile_path.read_bytes())
            )
        assert payloads[0] == payloads[1]
        metrics = json.loads(payloads[0][0])
        assert "histograms" in metrics and "gauges" in metrics
        profile = json.loads(payloads[0][1])
        assert profile["name"] == "cluster"
        assert len(profile["requests"]) == 16
        out = capsys.readouterr().out
        assert "cost profile: cluster" in out

    def test_profile_flag_does_not_change_result_json(self, capsys, tmp_path):
        plain = tmp_path / "plain.json"
        profiled = tmp_path / "profiled.json"
        code = main([*self._ARGS, "--result-output", str(plain)])
        assert code == 0
        code = main([
            *self._ARGS,
            "--result-output", str(profiled),
            "--profile-output", str(tmp_path / "p.json"),
        ])
        assert code == 0
        # Profiling must not perturb the chaos job's diffed artifact.
        assert plain.read_bytes() == profiled.read_bytes()


class TestExperimentCommand:
    def _spec_path(self, tmp_path, name="cli-exp", **overrides):
        import json

        spec = {
            "name": name,
            "model": "llama-2-7b",
            "hardware": "h100",
            "framework": "vllm",
            "mode": "engine",
            "profiled": True,
            "seeds": [0, 1],
            "workload": {
                "kind": "open_loop",
                "num_requests": 6,
                "input_tokens": 128,
                "output_tokens": 32,
                "rate_rps": 4.0,
            },
        }
        spec.update(overrides)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def test_run_writes_bundle(self, tmp_path, capsys):
        bundle = tmp_path / "bundle.json"
        code = main([
            "experiment", "run",
            "--spec", str(self._spec_path(tmp_path)),
            "--output", str(bundle),
        ])
        assert code == 0
        assert bundle.exists()
        out = capsys.readouterr().out
        assert "95% CI" in out

    def test_replay_is_byte_identical(self, tmp_path, capsys):
        bundle = tmp_path / "bundle.json"
        main([
            "experiment", "run",
            "--spec", str(self._spec_path(tmp_path)),
            "--output", str(bundle),
        ])
        capsys.readouterr()
        replayed = tmp_path / "replayed.json"
        code = main([
            "experiment", "replay",
            "--bundle", str(bundle),
            "--output", str(replayed),
        ])
        assert code == 0
        assert "byte-identical" in capsys.readouterr().out
        assert replayed.read_bytes() == bundle.read_bytes()

    def test_replay_detects_tampering(self, tmp_path, capsys):
        import json

        bundle = tmp_path / "bundle.json"
        main([
            "experiment", "run",
            "--spec", str(self._spec_path(tmp_path)),
            "--output", str(bundle),
        ])
        capsys.readouterr()
        doc = json.loads(bundle.read_text(encoding="utf-8"))
        doc["seed_results"][0]["metrics"]["makespan_s"] = 123456.0
        bundle.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["experiment", "replay", "--bundle", str(bundle)])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_compare_flags_quantization(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main([
            "experiment", "run",
            "--spec", str(self._spec_path(tmp_path, name="fp16")),
            "--output", str(a),
        ])
        main([
            "experiment", "run",
            "--spec", str(self._spec_path(tmp_path, name="fp8", quant="fp8")),
            "--output", str(b),
        ])
        capsys.readouterr()
        code = main([
            "experiment", "compare", "--a", str(a), "--b", str(b),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fp16" in out and "fp8" in out

    def test_diff_on_bundles(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        main([
            "experiment", "run",
            "--spec", str(self._spec_path(tmp_path)),
            "--output", str(a),
        ])
        capsys.readouterr()
        out_json = tmp_path / "diff.json"
        code = main([
            "experiment", "diff",
            "--a", str(a), "--b", str(a),
            "--output", str(out_json),
        ])
        assert code == 0
        assert "joules_per_token" in capsys.readouterr().out
        assert out_json.exists()
