"""Farm CLI: submit / worker / status round trip, filters, dispatch."""

import runpy
import sys

import pytest

from repro.bench.golden import golden_cells
from repro.cli import main
from repro.farm import worker as worker_mod
from repro.farm.submit import sweep_cells, sweep_names
from repro.faults.channel import DroppedMessageError
from repro.sim.config import DEFAULT_PROTOCOL


class TestSweepCells:
    def test_sweep_names_cover_every_experiment(self):
        assert sweep_names() == sorted([
            "table1", "figure1", "figure2", "figure3", "ablation",
            "protocols", "golden", "chaos",
        ])

    def test_golden_app_filter(self):
        cells = sweep_cells(["golden"], apps=["Jacobi"])
        assert cells == [
            c for c in golden_cells() if c.app == "Jacobi"
        ]
        assert len(cells) == 4

    def test_protocol_filter(self):
        cells = sweep_cells(["protocols"], protocols=[DEFAULT_PROTOCOL])
        assert cells
        assert all(
            c.kwargs.get("protocol", DEFAULT_PROTOCOL) == DEFAULT_PROTOCOL
            for c in cells
        )

    def test_every_sweep_enumerates(self):
        for name in sweep_names():
            assert sweep_cells([name]), name

    def test_unknown_sweep_raises(self):
        with pytest.raises(KeyError, match="unknown sweep"):
            sweep_cells(["figure9"])


class TestCli:
    def test_submit_worker_status_roundtrip(
        self, tmp_path, monkeypatch, capsys, jacobi_results
    ):
        def fake(app, dataset, label, **kwargs):
            return jacobi_results[label]

        monkeypatch.setattr(worker_mod, "run_case", fake)
        store = str(tmp_path / "store")

        assert main(["farm", "submit", "golden", "--apps", "Jacobi",
                     "--store", store]) == 0
        assert "4 enqueued" in capsys.readouterr().out

        assert main(["farm", "status", "--store", store]) == 0
        assert "4 queued" in capsys.readouterr().out

        assert main(["farm", "worker", "--id", "w0", "--store", store]) == 0
        captured = capsys.readouterr()
        assert "4 cells claimed, 4 completed" in captured.out

        assert main(["farm", "status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "4 results" in out
        assert "4 done" in out

        # Resubmitting finds everything already computed.
        assert main(["farm", "submit", "golden", "--apps", "Jacobi",
                     "--store", store]) == 0
        assert "4 already done" in capsys.readouterr().out

    def test_worker_exit_code_reflects_failures(
        self, tmp_path, monkeypatch, capsys
    ):
        def explode(app, dataset, label, **kwargs):
            raise DroppedMessageError(3, "diff_request", 2)

        monkeypatch.setattr(worker_mod, "run_case", explode)
        store = str(tmp_path / "store")
        assert main(["farm", "submit", "golden", "--apps", "Jacobi",
                     "--store", store]) == 0
        capsys.readouterr()
        assert main(["farm", "worker", "--store", store]) == 1
        assert main(["farm", "status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "4 failed" in out
        assert "failed: Jacobi/1Kx1K" in out

    def test_submit_rejects_unknown_sweep(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["farm", "submit", "figure9", "--store", str(tmp_path / "s")])

    def test_command_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["farm"])

    def test_repro_main_dispatches_farm(self, tmp_path, capsys, monkeypatch):
        # `python -m repro.farm ARGS` runs `python -m repro farm ARGS`.
        store = str(tmp_path / "store")
        monkeypatch.setattr(sys, "argv", ["repro.farm", "status", "--store", store])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("repro.farm", run_name="__main__")
        assert exc.value.code == 0
        assert "0 results" in capsys.readouterr().out
