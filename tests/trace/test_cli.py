"""The one-stop tracer CLI (python -m repro.trace)."""

import argparse
import json

import pytest

from repro.apps.base import get_app
from repro.cli import main, resolve_app, resolve_dataset, resolve_unit


def test_resolve_app_is_case_insensitive():
    assert resolve_app("jacobi") == "Jacobi"
    assert resolve_app("ILINK") == "ILINK"
    assert resolve_app("3d-fft") == "3D-FFT"
    with pytest.raises(argparse.ArgumentTypeError):
        resolve_app("nope")


def test_resolve_dataset_aliases():
    app = get_app("Jacobi")
    labels = sorted(app.datasets, key=app.heap_bytes)
    assert resolve_dataset(app, "small") == labels[0]
    assert resolve_dataset(app, "large") == labels[-1]
    assert resolve_dataset(app, labels[0]) == labels[0]
    with pytest.raises(argparse.ArgumentTypeError):
        resolve_dataset(app, "bogus")


def test_resolve_unit():
    assert resolve_unit("4k") == "4K"
    assert resolve_unit("DYN") == "Dyn"
    with pytest.raises(argparse.ArgumentTypeError):
        resolve_unit("2K")


def test_acceptance_invocation(tmp_path, capsys):
    """The ISSUE acceptance command: valid Chrome-trace JSON with
    per-processor thread ids."""
    out = tmp_path / "t.json"
    rc = main(["trace", "jacobi", "small", "4K", "--out", str(out)])
    assert rc == 0
    doc = json.load(open(out))
    assert "traceEvents" in doc
    tids = {e["tid"] for e in doc["traceEvents"] if e.get("ph") == "X"}
    assert tids == set(range(8))
    text = capsys.readouterr().out
    assert "race-free" in text
    assert "False-sharing attribution" in text
    assert "Per-phase simulated cost" in text
    assert text.index("Per-phase") > text.index("False-sharing attribution")


def test_jsonl_and_flags(tmp_path, capsys):
    out = tmp_path / "ev.jsonl"
    rc = main([
        "trace",
        "jacobi", "small", "4k", "--jsonl", str(out),
        "--no-races", "--top", "3", "--nprocs", "4",
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines and all(json.loads(ln)["kind"] for ln in lines)
    text = capsys.readouterr().out
    assert "happens-before" not in text  # --no-races
    assert "on 4 procs" in text


def test_invalid_config_is_a_usage_error(capsys):
    """A configuration SimConfig.validate rejects ends in an argparse
    error (exit 2, the message on stderr), not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["trace", "jacobi", "small", "4K", "--nprocs", "0"])
    assert exc.value.code == 2
    assert "nprocs must be >= 1, got 0" in capsys.readouterr().err
