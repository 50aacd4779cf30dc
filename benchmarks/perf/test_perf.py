"""Tests of the benchmark itself.

Run with ``python -m pytest benchmarks/perf -q`` (outside the tier-1
``testpaths``: the smoke run alone simulates for half a minute).
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

from benchmarks.perf import cli, layers, spans  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS  # noqa: E402

RUN_PY = ROOT / "benchmarks" / "perf" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_py(*args: str, cwd: pathlib.Path = ROOT, script: pathlib.Path = RUN_PY):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False, timeout=170,
    )
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc, result


def spec_names(key: str):
    return [m["name"] for m in SPEC[key]]


def test_spec_names_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = spec_names("end_to_end") + spec_names("per_layer")
    assert len(set(names)) == len(names)
    for name in names + list(WORKLOADS):
        assert NAME.fullmatch(name), name
    assert "setup_s" in spec_names("end_to_end")
    for metric in [*layers.SELF_METRICS.values(),
                   *layers.CALL_METRICS.values(), *cli.STORE_BOUNDS]:
        assert metric in spec_names("per_layer"), metric


def test_smoke_exits_zero_and_prints_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--smoke", "--seed", "3",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout
    record = json.loads(out.read_text())
    assert record["seed"] == 3
    assert list(record["workloads"]) == list(WORKLOADS)
    for name, runs in record["workloads"].items():
        assert runs["failed"] == 0 and runs["attempted"] > 0, name
        (metrics,) = runs["end_to_end"]
        assert list(metrics) == spec_names("end_to_end")
        assert all(value > 0 for value in metrics.values()), (name, metrics)
    for m in SPEC["end_to_end"]:
        assert f"  {m['name']} " in proc.stdout


def test_traced_run_names_every_layer_and_attribution_closes():
    proc, result = run_py(
        "--workload", "sync-handoff", "--seed", "5", "--trace", "1",
        "--passes", "1",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == spec_names("per_layer")
    traced = metrics["spans.traced_pass_s"]
    attributed = sum(
        metrics[m] for m in sorted(set(layers.SELF_METRICS.values()))
    )
    unattributed = metrics["spans.unattributed_share"] * traced
    assert attributed + unattributed == pytest.approx(traced, rel=1e-9)
    assert 0 <= metrics["spans.unattributed_share"] <= 0.10
    assert metrics["sim.engine.parks"] == (
        metrics["sim.engine.thread_switches"]
        + metrics["sim.engine.inline_resumes"]
    )
    # Exact counts tie back to what the simulator itself reports.
    assert metrics["dsm.sync.service_calls"] == metrics["sim.engine.parks"]
    assert metrics["protocols.override_calls"] == 0
    assert metrics["farm.store.self_s"] == 0


def test_corrupted_golden_fails_the_run(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(ROOT / "benchmarks" / "golden", golden)
    path = golden / "TSP.json"
    data = json.loads(path.read_text())
    data["19-city"]["4K"]["useful_messages"] += 1
    path.write_text(json.dumps(data))
    proc, result = run_py(
        "--workload", "sync-handoff", "--trace", "0", "--passes", "1",
        "--no-warmup", "--golden-dir", str(golden),
    )
    assert proc.returncode != 0
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 16
    assert "useful_messages" in proc.stdout


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    """With nothing but BENCHMARK.json and the benchmark's own files
    there is no simulator to measure."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bare = tmp_path / "benchmarks" / "perf"
    shutil.copytree(
        ROOT / "benchmarks" / "perf", bare,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc, result = run_py(
        "--workload", "app-compute", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path, script=bare / "run.py",
    )
    assert proc.returncode != 0
    assert result is None


def test_too_few_requests_are_refused():
    """Under 20 requests the 5 % kind has none, so no latency to report."""
    from benchmarks.perf import storeload

    proc, result = run_py("--workload", "store-serve", "--requests", "19")
    assert proc.returncode == 2 and result is None
    assert "--requests must be at least 20" in proc.stderr
    assert set(storeload.request_sequence(0, 20)) == set(storeload.MIX)
    assert storeload.percentile([], 0.5) == 0.0


def test_wrappers_are_fully_removed():
    from repro.bench import harness, pool
    from repro.core.proc import Proc
    from repro.dsm.lrc import LrcProc
    from repro.sim.engine import Engine

    before = (
        vars(Proc)["read"], vars(Proc)["read_range"], vars(Engine)["park"],
        vars(LrcProc)["fetch"], harness.run_case, pool.run_case,
    )
    rec = spans.Recorder()
    spans.install(rec)
    assert rec.patched()
    assert vars(Proc)["read"] is vars(Proc)["read_range"] is not before[0]
    assert harness.run_case is pool.run_case is not before[4]
    rec.remove()
    assert rec.patched() == []
    assert before == (
        vars(Proc)["read"], vars(Proc)["read_range"], vars(Engine)["park"],
        vars(LrcProc)["fetch"], harness.run_case, pool.run_case,
    )


def _recorder(rows):
    """A recorder holding hand-written ``(name, thread, start, end)``."""
    rec = spans.Recorder()
    for name, thread, start, end in rows:
        rec.buffer.extend((rec._name_id(name), thread, start, end))
    return rec


def test_ledger_self_time_and_handoff_accounting():
    """Two processors, one barrier.  Thread 1 runs 10..30, parks at 30;
    the drain services 32..36 and hands to thread 2, whose worker
    starts at 40 and which parks at 60; that drain (service 61..63)
    wakes thread 1 at 70.  Both then finish: thread 1 at 80 (waking
    thread 2 at 85), thread 2 at 90 (waking nobody, back at 92)."""
    service, barrier = "dsm.sync.service", "core.proc"
    rec = _recorder([
        (service, 1, 32, 36),
        (service, 2, 61, 63),
        (spans.PARK, 1, 30, 70),        # blocked until thread 2 parks
        (barrier, 1, 29, 71),
        (spans.WORKER, 1, 10, 80),
        (service, 1, 81, 82),
        (spans.PARK, 1, 80, 84),        # FINISH of thread 1
        (spans.PARK, 2, 60, 85),
        (barrier, 2, 59, 86),
        (spans.WORKER, 2, 40, 90),
        (service, 2, 90, 91),
        (spans.PARK, 2, 90, 92),        # FINISH of thread 2: the last
        (spans.RUN, 0, 5, 100),
        (layers.ROOT, 0, 0, 110),
    ])
    ledger = spans.Ledger(rec)
    engine = ledger.engine
    assert engine["parks"] == 4
    # 30->40 and 60->70 and 80->85 change threads; 90->92 does not.
    assert engine["thread_switches"] == 3
    assert engine["inline_resumes"] == 1
    handoff_ns = (10 - 4) + (10 - 2) + (5 - 1) + (2 - 1)
    assert engine["handoff_s"] == pytest.approx(handoff_ns / 1e9)
    selfs = ledger.self_seconds()
    assert selfs[spans.WORKER] == pytest.approx(((70 - 42) + (50 - 27)) / 1e9)
    assert selfs[barrier] == pytest.approx(4 / 1e9)
    assert selfs[service] == pytest.approx(8 / 1e9)
    # Engine.run is closed by construction: workers + barriers + parks'
    # services + handoffs + overhead == its 95 ns.
    busy = selfs[spans.WORKER] + selfs[barrier] + selfs[service]
    assert busy + selfs[spans.PARK] + selfs[spans.RUN] == pytest.approx(95e-9)
    assert selfs[layers.ROOT] == pytest.approx(15e-9)


def test_compare_verdicts_and_exact_counts(tmp_path, capsys):
    def record(pass_s, parks=100.0):
        layer = dict.fromkeys(spec_names("per_layer"), 0.0)
        layer["sim.engine.parks"] = parks
        return {"workloads": {"app-compute": {
            "end_to_end": [
                {"setup_s": 3.0, "pass_s": s, "peak_rss_mb": 200.0}
                for s in pass_s
            ],
            "per_layer": [layer],
        }}}

    steady = [3.00, 3.01, 3.02, 3.03, 3.04]
    assert cli.verdict(steady, steady, 0.10, True)[0] == "within-bound"
    assert cli.verdict(steady, [s * 1.2 for s in steady], 0.10, True)[0] == "worse"
    assert cli.verdict(steady, [s * 0.9 for s in steady], 0.10, True)[0] == "better"
    noisy = [2.0, 2.5, 3.0, 3.5, 4.0]
    assert cli.verdict(noisy, noisy, 0.10, True)[0] == "unresolved"
    assert cli.verdict(noisy, [1.0, 1.1, 1.2], 0.10, True)[0] == "better"
    # A higher-is-better metric reads the other way round.
    assert cli.verdict(steady, [s * 1.2 for s in steady], 0.10, False)[0] == "better"

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(record(steady)))
    b.write_text(json.dumps(record([s * 1.02 for s in steady])))
    assert cli.main(["compare", str(a), str(b)]) == 0
    assert "within-bound" in capsys.readouterr().out
    b.write_text(json.dumps(record(steady, parks=101.0)))
    assert cli.main(["compare", str(a), str(b)]) == 1
    assert "sim.engine.parks: [100.0, 101.0]" in capsys.readouterr().out
