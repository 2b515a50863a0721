"""CLI tests (``python -m repro``)."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def run_cli_expecting(capsys, expected_code, *argv):
    """Run the CLI and assert a specific exit code (``verify`` semantics)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    assert code == expected_code
    return capsys.readouterr()


class TestParser:
    def test_gamma_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["--gamma", "0,0,2,1", "zoo"])
        assert args.gamma.gamma10 == 2.0

    def test_gamma_validation(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--gamma", "0,0,1", "zoo"])
        with pytest.raises(SystemExit):
            parser.parse_args(["--gamma", "0,0,0.5,1", "zoo"])  # not Γfair

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_zoo(self, capsys):
        out = run_cli(capsys, "zoo")
        assert "opt-2sfe" in out and "pi2-ideal-coin" in out

    def test_zoo_small_party_count_drops_multiparty(self, capsys):
        out = run_cli(capsys, "--parties", "2", "zoo")
        assert "opt-nsfe" not in out

    def test_attack(self, capsys):
        out = run_cli(capsys, "--runs", "60", "attack", "pi1")
        assert "sup utility: 1.0000" in out
        assert "E10=1.000" in out

    def test_compare(self, capsys):
        out = run_cli(capsys, "--runs", "80", "compare", "pi1", "pi2")
        assert "Fairness partial order" in out
        assert out.index("pi2-coin") < out.index("pi1-naive")

    def test_unknown_protocol(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "attack", "nonexistent")

    def test_balance(self, capsys):
        out = run_cli(
            capsys, "--runs", "80", "--parties", "3", "balance", "opt-nsfe"
        )
        assert "utility-balanced: True" in out

    def test_balance_rejects_two_party(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "balance", "pi1")

    def test_reconstruction(self, capsys):
        out = run_cli(capsys, "--runs", "60", "reconstruction", "single-round")
        assert "reconstruction rounds: 1" in out

    def test_curve(self, capsys):
        out = run_cli(
            capsys,
            "--runs", "60", "--parties", "4",
            "curve", "opt-nsfe", "gmw-threshold",
        )
        assert "t" in out
        assert "corruption budget" in out

    def test_curve_party_mismatch(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "curve", "pi1", "opt-nsfe")


class TestRuntimeFlags:
    def test_retry_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["--max-retries", "1", "--chunk-timeout", "2.5", "--stats", "zoo"]
        )
        assert args.max_retries == 1
        assert args.chunk_timeout == 2.5
        assert args.stats

    def test_stats_dump_includes_failure_counters(self, capsys):
        out = run_cli(
            capsys,
            "--runs", "30", "--stats", "--max-retries", "1",
            "attack", "dummy",
        )
        assert "sup utility" in out
        assert '"backend"' in out
        assert '"serial_replays"' in out
        assert '"failed_attempts"' in out
        assert '"cancelled_chunks"' in out

    def test_workers_flag_is_a_usage_error(self, capsys):
        # No venue ships chunks off this host: the flag must be rejected,
        # not accepted and ignored.
        with pytest.raises(SystemExit) as exc:
            main(["--workers", "h:1", "attack", "dummy"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: repro")


class TestKnobErrors:
    """A knob out of range, from the environment or a flag, is a
    one-line error naming its source; none is clamped or ignored."""

    @pytest.mark.parametrize("var,raw,argv,source", [
        ("REPRO_MAX_RETRIES", "-3", [], "REPRO_MAX_RETRIES"),
        (None, None, ["--max-retries", "-3"], "--max-retries"),
        ("REPRO_FAULT_RATE", "7", [], "REPRO_FAULT_RATE"),
        ("REPRO_FAULT_RATE", "-0.5", [], "REPRO_FAULT_RATE"),
        (None, None, ["--jobs", "-1"], "--jobs"),
        (None, None, ["--chunk-timeout", "0"], "--chunk-timeout"),
        (None, None, ["--chunk-size", "0"], "--chunk-size"),
        (None, None, ["--chunk-size", "-3"], "--chunk-size"),
    ])
    def test_out_of_range_is_an_error(self, monkeypatch, capsys, var, raw,
                                      argv, source):
        if var:
            monkeypatch.setenv(var, raw)
        with pytest.raises(SystemExit) as exc:
            main(["--runs", "20", *argv, "attack", "dummy"])
        message = str(exc.value.code)
        assert message.startswith(f"repro: {source} must be ")
        assert "\n" not in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("var,raw", [
        ("REPRO_CHANNEL_LOSS", "0.1"),
        ("REPRO_BACKEND", "reference"),
    ])
    def test_removed_knob_is_an_error(self, monkeypatch, capsys, var, raw):
        monkeypatch.setenv(var, raw)
        with pytest.raises(SystemExit) as exc:
            main(["--runs", "20", "attack", "dummy"])
        message = str(exc.value.code)
        assert message.startswith(f"repro: unknown environment variable {var};")
        assert "REPRO_JOBS" in message and "\n" not in message
        assert capsys.readouterr().out == ""

    def test_jobs_flag_and_env_accept_the_same_spellings(self, monkeypatch):
        parser = build_parser()
        assert parser.parse_args(["--jobs", "auto", "zoo"]).jobs == 0
        assert parser.parse_args(["verify", "--jobs", "AUTO"]).jobs == 0
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert main(["zoo"]) == 0


class TestJournalFlags:
    def test_journal_parses(self):
        parser = build_parser()
        args = parser.parse_args(["--journal", "ledger", "zoo"])
        assert args.journal == "ledger"
        args = parser.parse_args(["zoo"])
        assert args.journal is None

    def test_accepted_after_verify_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(["verify", "--journal", "ledger"])
        assert args.journal == "ledger"

    def test_resume_without_directory_is_a_usage_error(self, capsys):
        # A journal is read on every run, so there is no resume flag:
        # passing one is rejected, with or without a journal directory.
        for argv in (["--resume", "zoo"],
                     ["--journal", "ledger", "--resume", "zoo"],
                     ["verify", "--journal", "ledger", "--resume"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: repro")

    def test_garbage_env_knobs_exit_cleanly(self, monkeypatch):
        # Every env knob fails as a one-line usage error naming itself,
        # not a traceback from the runner.
        for var, raw in [
            ("REPRO_JOBS", "many"),
            ("REPRO_FAULT_KIND", "boom"),
        ]:
            monkeypatch.setenv(var, raw)
            with pytest.raises(SystemExit, match=var):
                main(["zoo"])
            monkeypatch.delenv(var)

    def test_cli_journal_records_and_resumes(self, capsys, tmp_path):
        cold = run_cli(
            capsys,
            "--runs", "30", "--journal", str(tmp_path), "attack", "dummy",
        )
        entries = sorted(tmp_path.glob("*/*.json"))
        assert entries
        # Rerunning with the same directory replays it: no flag needed.
        warm = run_cli(
            capsys,
            "--runs", "30", "--journal", str(tmp_path), "--stats",
            "attack", "dummy",
        )
        assert warm.startswith(cold)
        history = json.loads(warm[len(cold):])
        assert sum(s["journal_replayed_chunks"] for s in history) == len(entries)
        assert sum(s["journal_appended_chunks"] for s in history) == 0


def test_chaos_is_not_a_command(capsys):
    # The chaos harness is a test suite (tests/test_chaos.py), not a
    # subcommand: `repro chaos` is an argparse usage error.
    with pytest.raises(SystemExit) as exc:
        main(["chaos"])
    assert exc.value.code == 2
    assert "invalid choice: 'chaos'" in capsys.readouterr().err


def test_fault_sensitivity_is_not_a_command(capsys):
    # The engine runs the paper's lossless network only, so there is no
    # fault sweep to run: `repro fault-sensitivity` is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["fault-sensitivity", "dummy"])
    assert exc.value.code == 2
    assert "invalid choice: 'fault-sensitivity'" in capsys.readouterr().err


class TestStatsDumpSchema:
    @staticmethod
    def _stats_dump(out):
        # The dump is the JSON array printed after the human-readable
        # output; its opening bracket sits alone on its own line.
        return json.loads(out[out.index("\n[") + 1:])

    def test_stats_json_parses_with_full_schema(self, capsys):
        out = run_cli(capsys, "--runs", "40", "--stats", "attack", "dummy")
        history = self._stats_dump(out)
        assert history, "no batches recorded"
        required = {
            "backend", "jobs", "n_tasks", "n_chunks", "requested",
            "executions", "wall_clock_s", "executions_per_sec",
            "stopped_early", "failed_attempts", "retries", "timeouts",
            "serial_replays", "cancelled_chunks", "degraded",
            "setup_s", "execute_s", "classify_s",
            "memo_hits", "memo_misses",
            "cache_hits", "cache_misses", "cache_stores", "chunks",
        }
        for stats in history:
            assert required <= set(stats)
            assert stats["backend"] in ("serial", "process-pool")
            for chunk in stats["chunks"]:
                assert set(chunk) >= {
                    "task_index", "start", "stop", "attempts", "outcome",
                    "backend", "wall_clock_s", "cache",
                }

    def test_stats_totals_match_requested_runs(self, capsys):
        out = run_cli(capsys, "--runs", "40", "--stats", "attack", "dummy")
        history = self._stats_dump(out)
        for stats in history:
            if not stats["stopped_early"]:
                assert stats["executions"] == stats["requested"]


class TestProfileCommand:
    def test_profile_output_structure(self, capsys):
        out = run_cli(capsys, "--runs", "20", "profile", "pi1")
        assert "protocol: pi1-naive" in out
        assert "function" in out and "cumtime" in out
        assert "phases: setup" in out
        assert "setup memos:" in out

    def test_profile_default_protocol_and_top(self, capsys):
        out = run_cli(capsys, "--runs", "10", "profile", "--top", "3")
        assert "opt-2sfe" in out
        # Header + up to 3 hotspot rows before the phases line.
        table = out[: out.index("phases:")]
        assert len([l for l in table.splitlines() if l.strip()]) <= 6


class TestVerifyCommand:
    def test_exit_zero_and_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        captured = run_cli_expecting(
            capsys, 0,
            "--seed", "cli-verify",
            "verify", "--claims", "E4,E10-rounds", "--budget", "small",
            "--json", str(out_path),
        )
        assert "ok" in captured.out
        assert "artifact written" in captured.out
        payload = json.loads(out_path.read_text())
        assert payload["exit_code"] == 0
        assert payload["summary"]["violated"] == 0
        assert payload["master_seed"] == repr("cli-verify")
        ids = [c["claim"]["claim_id"] for c in payload["checks"]]
        assert ids == ["E4-opt2sfe", "E4-single-round", "E10-rounds"]
        for check in payload["checks"]:
            assert check["verdict"] in ("ok", "within-tolerance")
            assert "seed" in check and "chunk_spans" in check

    def test_exit_two_on_unknown_claim(self, capsys):
        captured = run_cli_expecting(
            capsys, 2, "verify", "--claims", "E99", "--budget", "small"
        )
        assert "unknown claim" in captured.err

    def test_exit_two_on_bad_budget(self, capsys):
        captured = run_cli_expecting(
            capsys, 2, "verify", "--claims", "E4", "--budget", "banana"
        )
        assert "unknown budget" in captured.err

    def test_exit_one_on_violation(self, capsys, monkeypatch):
        from repro.verify import (
            BoundKind, Claim, ClaimRegistry, Measurement, TolerancePolicy,
        )
        import repro.verify.checker as checker_mod

        rigged = ClaimRegistry([
            Claim(
                claim_id="RIGGED", experiment="T", paper_ref="test",
                statement="always violated", kind=BoundKind.UPPER,
                analytic=lambda: 0.0,
                measure=lambda ctx: Measurement.exact(1.0),
                tolerance=TolerancePolicy(slack=0.0, z=0.0),
            )
        ])
        monkeypatch.setattr(checker_mod, "default_registry", lambda: rigged)
        captured = run_cli_expecting(
            capsys, 1, "verify", "--claims", "all", "--budget", "small"
        )
        assert "violated" in captured.out

    def test_jobs_accepted_after_subcommand(self, capsys):
        captured = run_cli_expecting(
            capsys, 0,
            "verify", "--claims", "E10-rounds", "--budget", "small",
            "--jobs", "2",
        )
        assert "ok" in captured.out
