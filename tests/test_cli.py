"""The command tree (``python -m repro``): one usage error for every
unknown name, a working ``--help`` on every subcommand, and the
``python -m repro.<subcommand>`` aliases."""

import argparse
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

REPO = pathlib.Path(__file__).resolve().parents[1]

#: One command line per registry-checked name a subcommand takes.
UNKNOWN_NAMES = {
    "bench-only": ["bench", "--check", "--only", "Nope"],
    "bench-apps": ["bench", "--check", "--apps", "Nope"],
    "bench-protocols": ["bench", "--check", "--protocols", "bogus"],
    "bench-experiment": ["bench", "figure9"],
    "trace-app": ["trace", "Nope", "small", "4K"],
    "trace-dataset": ["trace", "jacobi", "huge", "4K"],
    "trace-unit": ["trace", "jacobi", "small", "2K"],
    "faults-app": ["faults", "Nope", "1Kx1K", "4K"],
    "faults-dataset": ["faults", "Jacobi", "huge", "4K"],
    "faults-unit": ["faults", "Jacobi", "1Kx1K", "32K"],
    "faults-apps": ["faults", "--chaos-sweep", "--apps", "Nope"],
    "faults-labels": ["faults", "--chaos-sweep", "--labels", "32K"],
    "analyze-crosscheck-apps": ["analyze", "--crosscheck", "--apps", "Nope"],
    "analyze-predict": ["analyze", "--predict", "Nope"],
    "analyze-predict-dataset": ["analyze", "--predict", "Barnes",
                                "--dataset", "huge"],
    "layout-apps": ["analyze", "layout", "--apps", "Nope"],
    "modelcheck-litmus": ["analyze", "modelcheck", "--litmus", "nope"],
    "modelcheck-protocols": ["analyze", "modelcheck", "--protocols", "bogus"],
    "farm-submit-apps": ["farm", "submit", "figure1", "--apps", "Nope"],
    "farm-submit-protocols": ["farm", "submit", "figure1",
                              "--protocols", "bogus"],
    "farm-submit-sweep": ["farm", "submit", "figure9"],
}


@pytest.mark.parametrize("argv", UNKNOWN_NAMES.values(), ids=UNKNOWN_NAMES)
def test_unknown_name_is_a_usage_error(argv, tmp_path, capsys):
    if argv[0] == "farm":
        argv = argv + ["--store", str(tmp_path / "store")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.count("usage:") == 1
    assert ": error: argument " in err
    assert "Traceback" not in err
    assert not (tmp_path / "store").exists()  # nothing was enqueued


def _subcommands(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield path + (name,)
                yield from _subcommands(sub, path + (name,))


SUBCOMMANDS = list(_subcommands(build_parser()))


def test_tree_has_every_subcommand():
    assert SUBCOMMANDS == [
        ("bench",), ("trace",), ("faults",), ("analyze",),
        ("analyze", "modelcheck"), ("analyze", "layout"), ("protocols",),
        ("farm",), ("farm", "submit"), ("farm", "worker"), ("farm", "serve"),
        ("farm", "status"),
    ]


@pytest.mark.parametrize("path", SUBCOMMANDS, ids=" ".join)
def test_help_exits_zero(path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*path, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: python -m repro {' '.join(path)} ")


def test_module_alias_forwards_to_its_subcommand():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--help"],
        capture_output=True, text=True, env=env, cwd=REPO, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: python -m repro bench ")
    assert "--refresh-golden" in proc.stdout
