"""CLI entry point (python -m repro)."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_classify_command(self, capsys, reference_classifier):
        assert main(["classify", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "P(ad)" in out

    def test_render_command(self, capsys, reference_classifier):
        assert main(["render", "--pages", "2"]) == 0
        out = capsys.readouterr().out
        assert "blocked" in out

    def test_serve_sim_command(self, capsys, reference_classifier):
        assert main([
            "serve-sim", "--sessions", "3", "--frames", "4",
            "--workers", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "requests submitted" in out
        assert "queue wait p50/p95/p99" in out
        assert "virtual makespan" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for command in ("train", "classify", "render", "serve-sim",
                        "crawl"):
            assert command in out

    def test_bad_serve_env_leaves_other_commands_alone(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_SERVE_MAX_BATCH", "lots")
        with pytest.raises(SystemExit) as exit_info:
            main(["crawl", "--help"])
        assert exit_info.value.code == 0


RULE_HITS = "rule hits (cascade, no queue entry)"
DIFF_HITS = "diff hits (snapshot verdict, no hash)"


def _row(out, label):
    """The value of the serve-sim table row ``label``."""
    line = next(row for row in out.splitlines() if row.startswith(label))
    return line[len(label):].strip()


_SERVE_SIM = [
    "serve-sim", "--sessions", "4", "--frames", "6", "--revisits", "1",
    "--workers", "0",
]


class TestServeSimFlags:
    def test_flags_beat_the_environment(
        self, capsys, monkeypatch, reference_classifier
    ):
        monkeypatch.setenv("PERCIVAL_CASCADE", "on")
        monkeypatch.setenv("PERCIVAL_DIFF", "on")
        monkeypatch.setenv("PERCIVAL_CHAOS", "7")
        assert main(_SERVE_SIM + [
            "--cascade", "off", "--diff", "off", "--chaos", "off",
        ]) == 0
        out = capsys.readouterr().out
        assert _row(out, RULE_HITS) == "0"
        assert _row(out, DIFF_HITS) == "0"
        assert "chaos schedule" not in out

    def test_cascade_flag_turns_the_tier_on(
        self, capsys, monkeypatch, reference_classifier
    ):
        for name in ("PERCIVAL_CASCADE", "PERCIVAL_DIFF", "PERCIVAL_CHAOS"):
            monkeypatch.delenv(name, raising=False)
        assert main(_SERVE_SIM + ["--cascade", "on"]) == 0
        assert int(_row(capsys.readouterr().out, RULE_HITS)) > 0
