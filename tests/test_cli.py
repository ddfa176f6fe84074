"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune", "--dataset", "australian"])
        assert args.method == "sha+"
        assert args.hps == 2

    def test_tune_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--dataset", "mnist"])

    def test_tune_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--dataset", "australian", "--method", "grid"])

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["tune", "--dataset", "australian"])
        assert args.n_workers == 1
        assert args.cache is True
        assert args.max_retries == 1

    def test_engine_flags_parse(self):
        args = build_parser().parse_args([
            "tune", "--dataset", "australian",
            "--n-workers", "4", "--no-cache", "--max-retries", "2",
        ])
        assert args.n_workers == 4
        assert args.cache is False
        assert args.max_retries == 2

    @pytest.mark.parametrize(
        "flag", [["--min-workers", "1"], ["--max-workers", "3"], ["--speculate"]],
        ids=lambda flag: flag[0],
    )
    def test_removed_pool_flags_are_unrecognized(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["tune", "--dataset", "australian", *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_workers_and_trial_timeout_select_the_pool(self):
        from repro.cli import _build_engine

        def executor(*flags):
            argv = ["tune", "--dataset", "australian", *flags]
            return _build_engine(build_parser().parse_args(argv)).executor

        assert type(executor()).__name__ == "SerialExecutor"
        pool = executor("--n-workers", "3")
        assert (type(pool).__name__, pool.n_workers, pool.trial_timeout) == (
            "ParallelExecutor", 3, None)
        pool = executor("--trial-timeout", "5")  # the watchdog needs a pool, even of one
        assert (type(pool).__name__, pool.n_workers, pool.trial_timeout) == (
            "ParallelExecutor", 1, 5.0)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(SystemExit):
            main(["tune", "--dataset", "australian", "--n-workers", "0"])


class TestDatasetsCommand:
    def test_prints_table(self, capsys):
        assert main(["datasets", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "australian" in out
        assert "kc-house" in out


class TestTuneCommand:
    def test_end_to_end_with_save(self, capsys, tmp_path):
        out_file = tmp_path / "search.json"
        code = main([
            "tune", "--dataset", "australian", "--method", "sha",
            "--scale", "0.25", "--max-iter", "5", "--seed", "1",
            "--save", str(out_file),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "best configuration" in printed
        assert "test accuracy" in printed
        payload = json.loads(out_file.read_text())
        assert payload["method"] == "SHA"
        assert payload["trials"]

    def test_default_run_equals_two_worker_run(self, capsys):
        # One execution path: a plain tune is the engine at one worker.
        base = [
            "tune", "--dataset", "australian", "--method", "hb+",
            "--scale", "0.25", "--max-iter", "5", "--seed", "1",
        ]

        def summary(argv):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith("engine: ")
            assert any(line.startswith("cache hit rate") for line in lines)
            return [
                line for line in lines
                if line.startswith(("best configuration", "train ", "test "))
            ]

        plain = summary(base)
        assert len(plain) == 3
        assert summary(base + ["--n-workers", "2"]) == plain

    def test_model_based_method_runs_without_pool(self, capsys):
        code = main([
            "tune", "--dataset", "australian", "--method", "tpe",
            "--scale", "0.25", "--max-iter", "5",
        ])
        assert code == 0
        assert "best configuration" in capsys.readouterr().out


class TestGuardFlag:
    def test_guard_defaults_to_off(self):
        args = build_parser().parse_args(["tune", "--dataset", "australian"])
        assert args.guard == "off"

    def test_guard_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["tune", "--dataset", "australian", "--guard", "panic"]
            )

    def test_tune_with_guard_prints_summary(self, capsys):
        code = main([
            "tune", "--dataset", "australian", "--method", "sha+",
            "--scale", "0.25", "--max-iter", "5", "--seed", "1",
            "--guard", "repair",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "data report" in printed
        assert "guard [repair]" in printed

    def test_guard_off_prints_no_guard_lines(self, capsys):
        code = main([
            "tune", "--dataset", "australian", "--method", "sha",
            "--scale", "0.25", "--max-iter", "5", "--seed", "1",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "guard [" not in printed
        assert "data report" not in printed

    def test_guard_with_engine_reports_stat_counter(self, capsys, tmp_path):
        journal = tmp_path / "run.wal"
        code = main([
            "tune", "--dataset", "australian", "--method", "sha+",
            "--scale", "0.25", "--max-iter", "5", "--seed", "1",
            "--guard", "repair", "--journal", str(journal),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "guard events" in printed
        assert journal.exists()

    def test_resume_under_other_guard_policy_refuses(self, tmp_path):
        journal = tmp_path / "run.wal"
        base = [
            "tune", "--dataset", "australian", "--method", "sha+",
            "--scale", "0.25", "--max-iter", "5", "--seed", "1",
            "--journal", str(journal),
        ]
        assert main(base + ["--guard", "repair"]) == 0
        from repro.engine import JournalError

        with pytest.raises(JournalError, match="guard"):
            main(base + ["--resume", "--guard", "warn"])


class TestTelemetryFlags:
    BASE = [
        "tune", "--dataset", "australian", "--method", "sha",
        "--scale", "0.25", "--max-iter", "5", "--seed", "1",
    ]

    def test_telemetry_defaults_to_off(self):
        args = build_parser().parse_args(["tune", "--dataset", "australian"])
        assert args.trace is None
        assert args.metrics is False

    def test_trace_writes_file_and_prints_span_count(self, capsys, tmp_path):
        trace = tmp_path / "run.trace.jsonl"
        assert main(self.BASE + ["--trace", str(trace)]) == 0
        printed = capsys.readouterr().out
        assert "trace" in printed and str(trace) in printed
        from repro.telemetry import TraceSink

        _, records, dropped = TraceSink.read(trace)
        assert dropped == 0
        kinds = {r.get("kind") for r in records if r.get("type") == "span"}
        assert {"run", "rung", "trial"} <= kinds

    def test_metrics_flag_prints_registry(self, capsys):
        assert main(self.BASE + ["--metrics"]) == 0
        printed = capsys.readouterr().out
        assert "telemetry metrics" in printed

    def test_profile_flag_is_unrecognized(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--dataset", "australian", "--profile"])
        assert "unrecognized arguments: --profile" in capsys.readouterr().err

    def test_no_flags_prints_no_telemetry_lines(self, capsys):
        assert main(self.BASE) == 0
        printed = capsys.readouterr().out
        assert "telemetry metrics" not in printed
        assert "trace " not in printed

    def test_saved_record_unchanged_by_tracing(self, tmp_path, capsys):
        plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
        assert main(self.BASE + ["--save", str(plain)]) == 0
        assert main(self.BASE + [
            "--save", str(traced), "--trace", str(tmp_path / "t.jsonl"),
        ]) == 0
        capsys.readouterr()

        def normalised(path):
            payload = json.loads(path.read_text())
            for trial in payload["trials"]:
                trial["result"].pop("cost")  # measured wall time, varies per run
            return payload

        plain_payload, traced_payload = normalised(plain), normalised(traced)
        assert traced_payload["trials"] == plain_payload["trials"]
        assert traced_payload["best_config"] == plain_payload["best_config"]


class TestWarmStartFlags:
    BASE = [
        "tune", "--dataset", "australian", "--method", "sha",
        "--scale", "0.25", "--max-iter", "5", "--seed", "1",
    ]

    def test_flags_parse_and_default_off(self):
        args = build_parser().parse_args(["tune", "--dataset", "australian"])
        assert args.warm_start is False
        assert args.checkpoint_dir is None

    def test_checkpoint_dir_implies_warm_start(self, tmp_path, capsys):
        assert main(self.BASE + ["--checkpoint-dir", str(tmp_path / "ck")]) == 0
        printed = capsys.readouterr().out
        assert "warm-start spill" in printed
        assert "warm start" in printed  # stats summary line

    def test_warm_start_in_memory(self, capsys):
        assert main(self.BASE + ["--warm-start"]) == 0
        printed = capsys.readouterr().out
        assert "warm-start in-memory" in printed

    def test_warm_start_with_journal_requires_spill(self, tmp_path):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(self.BASE + ["--warm-start", "--journal", str(tmp_path / "run.wal")])

    def test_warm_start_with_journal_and_spill_runs(self, tmp_path, capsys):
        assert main(self.BASE + [
            "--journal", str(tmp_path / "run.wal"),
            "--checkpoint-dir", str(tmp_path / "ck"),
        ]) == 0
        assert "warm-start spill" in capsys.readouterr().out

    def test_cold_run_prints_no_warm_lines(self, capsys):
        assert main(self.BASE) == 0
        assert "warm start" not in capsys.readouterr().out


class TestServeVerbs:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--root", "sroot"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.workers == 2
        assert args.queue_limit == 64
        assert args.quota == []

    def test_serve_quota_flag_repeats(self):
        args = build_parser().parse_args([
            "serve", "--root", "sroot", "--quota", "alice=3", "--quota", "bob=1",
        ])
        from repro.cli import _parse_quotas
        assert _parse_quotas(args.quota) == {"alice": 3, "bob": 1}

    @pytest.mark.parametrize("bad", ["alice", "alice=", "alice=zero", "alice=0"])
    def test_serve_quota_flag_rejects_malformed(self, bad):
        from repro.cli import _parse_quotas
        with pytest.raises(SystemExit):
            _parse_quotas([bad])

    def test_serve_requires_root(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_submit_defaults_mirror_jobspec(self):
        from repro.serve import JobSpec
        args = build_parser().parse_args([
            "submit", "--url", "http://127.0.0.1:1", "--tenant", "a",
            "--dataset", "australian",
        ])
        spec = JobSpec(tenant="a", dataset="australian")
        assert args.method == spec.method
        assert args.hps == spec.hps
        assert args.scale == spec.scale
        assert args.max_iter == spec.max_iter
        assert args.priority == spec.priority
        assert args.guard == spec.guard
        assert args.warm_start is spec.warm_start

    def test_submit_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "submit", "--url", "u", "--tenant", "a", "--dataset", "mnist",
            ])

    def test_jobs_selector_flags_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "jobs", "--url", "u", "--job", "x", "--cancel", "y",
            ])

    def test_submit_unreachable_daemon_fails_cleanly(self, capsys):
        code = main([
            "submit", "--url", "http://127.0.0.1:9", "--tenant", "a",
            "--dataset", "australian",
        ])
        assert code == 1
        assert "submit rejected" in capsys.readouterr().err

    def test_jobs_unreachable_daemon_fails_cleanly(self, capsys):
        assert main(["jobs", "--url", "http://127.0.0.1:9"]) == 1
        assert "request failed" in capsys.readouterr().err
