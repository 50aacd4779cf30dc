"""The example scripts must run end-to-end (documentation that cannot
rot)."""

import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "checksum" in out
    assert "false-sharing signature" in out


def test_dynamic_aggregation():
    out = run_example("dynamic_aggregation.py")
    assert "dynamic" in out
    # The grouped fetch must appear: an 8-page fault size.
    assert "8, 8" in out


def test_custom_app():
    out = run_example("custom_app.py")
    assert out.count("checksum ok") == 3
