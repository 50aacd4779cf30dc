"""CLI runner smoke tests (fast experiments only)."""

import pytest

from repro.cli import main
from repro.bench.experiments import cells_of, rendered
from repro.bench.harness import ResultCache


def test_commands_cover_all_experiments():
    assert set(rendered()) == {
        "table1", "figure1", "figure2", "figure3", "micro", "ablation",
        "protocols",
    }


def test_micro_via_cli(capsys, tmp_path):
    rc = main(["bench", "micro", "--out", str(tmp_path), "--no-cache"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "microbenchmarks" in out
    assert (tmp_path / "micro.txt").exists()


def test_bad_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["bench", "not-an-experiment"])


def test_bad_jobs_rejected():
    with pytest.raises(SystemExit):
        main(["bench", "micro", "--jobs", "0"])


def test_nothing_to_do_rejected():
    with pytest.raises(SystemExit):
        main(["bench"])


def test_cells_for_covers_every_sweep_experiment():
    for name in (
        "table1", "figure1", "figure2", "figure3", "ablation", "protocols",
    ):
        assert cells_of([name]), name
    assert cells_of(["micro"]) == []  # micro has no sweep cells


def test_unknown_protocol_rejected():
    with pytest.raises(SystemExit):
        main(["bench", "--check", "--protocols", "mesi"])


def test_main_restores_cache_configuration(tmp_path):
    before = ResultCache.disk()
    main(["bench", "micro", "--cache-dir", str(tmp_path / "cache")])
    assert ResultCache.disk() is before


class TestGoldenFlow:
    """--refresh-golden / --check wired through the CLI (one cheap app)."""

    def test_refresh_then_check_roundtrip(self, tmp_path, capsys):
        gdir = tmp_path / "golden"
        args = ["--only", "Jacobi", "--golden-dir", str(gdir),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(["bench", "--refresh-golden"] + args) == 0
        assert (gdir / "Jacobi.json").exists()
        assert main(["bench", "--check"] + args) == 0
        assert "golden check OK" in capsys.readouterr().out

    def test_check_fails_on_drift(self, tmp_path, capsys):
        import json

        gdir = tmp_path / "golden"
        args = ["--only", "Jacobi", "--golden-dir", str(gdir),
                "--cache-dir", str(tmp_path / "cache")]
        main(["bench", "--refresh-golden"] + args)
        path = gdir / "Jacobi.json"
        entry = json.loads(path.read_text())
        entry["1Kx1K"]["Dyn"]["sync_messages"] += 1
        path.write_text(json.dumps(entry))
        assert main(["bench", "--check"] + args) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "sync_messages" in out

    def test_check_missing_baselines_fails(self, tmp_path, capsys):
        rc = main(["bench", "--check", "--only", "Jacobi",
                   "--golden-dir", str(tmp_path / "nowhere"),
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 1
        assert "missing baseline" in capsys.readouterr().out

    def test_protocol_baselines_roundtrip(self, tmp_path, capsys):
        # --protocols widens the gate; non-default baselines land in a
        # <protocol>/ subdirectory and check tags cells with [erc].
        gdir = tmp_path / "golden"
        args = ["--only", "Jacobi", "--protocols", "erc",
                "--golden-dir", str(gdir),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(["bench", "--refresh-golden"] + args) == 0
        assert (gdir / "erc" / "Jacobi.json").exists()
        assert not (gdir / "Jacobi.json").exists()
        assert main(["bench", "--check"] + args) == 0
        assert "golden check OK" in capsys.readouterr().out
