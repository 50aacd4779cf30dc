"""Chrome-trace and JSONL export structure."""

import json

import numpy as np
import pytest

from repro.core import SimConfig, TreadMarks
from repro.trace.export import SIM_PID, chrome_trace, write_chrome_trace, write_jsonl

NPROCS = 4


@pytest.fixture(scope="module")
def traced_run():
    tmk = TreadMarks(
        SimConfig(nprocs=NPROCS, trace=True),
        heap_bytes=1 << 16,
        app_name="toy",
        dataset="unit",
    )
    grid = tmk.array("grid", (NPROCS * 2, 512), dtype="float32")

    def worker(proc):
        lo = proc.id * 2
        grid.write_rows(proc, lo, np.full((2, 512), proc.id + 1, np.float32))
        proc.barrier()
        halo = grid.read_row(proc, (lo + 2) % (NPROCS * 2))
        proc.acquire(1)
        proc.release(1)
        proc.barrier()
        return float(halo.sum())

    return tmk.run(worker)


def test_document_shape(traced_run):
    doc = chrome_trace(traced_run.trace)
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["otherData"]["nprocs"] == NPROCS
    assert doc["otherData"]["app"] == "toy"
    # Round-trips through JSON.
    assert json.loads(json.dumps(doc))["otherData"]["dataset"] == "unit"


def test_per_processor_thread_metadata(traced_run):
    doc = chrome_trace(traced_run.trace)
    names = {
        e["tid"]: e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "thread_name"
    }
    assert names == {p: f"P{p}" for p in range(NPROCS)}


def test_slices_cover_every_processor_with_valid_durations(traced_run):
    doc = chrome_trace(traced_run.trace)
    slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert {e["tid"] for e in slices} == set(range(NPROCS))
    for e in slices:
        assert e["pid"] == SIM_PID
        assert e["dur"] >= 0.0
        assert e["ts"] >= 0.0
    names = sorted({e["name"] for e in slices})
    assert "run" in names
    assert any(n.startswith("barrier") for n in names)
    assert any(n.startswith("lock") for n in names)
    assert "fault" in names


def test_flow_arrows_pair_up_by_message(traced_run):
    doc = chrome_trace(traced_run.trace)
    starts = {e["id"]: e for e in doc["traceEvents"] if e.get("ph") == "s"}
    finishes = {e["id"]: e for e in doc["traceEvents"] if e.get("ph") == "f"}
    assert starts and set(starts) == set(finishes)
    nmsgs = sum(1 for ev in traced_run.trace.events if ev.kind == "message")
    assert len(starts) == nmsgs
    for mid, s in starts.items():
        f = finishes[mid]
        assert f["ts"] >= s["ts"]  # receive not before send
        assert s["cat"] == f["cat"] == "msg"


def test_flows_and_instants_can_be_disabled(traced_run):
    doc = chrome_trace(traced_run.trace, flows=False, instants=False)
    assert not [e for e in doc["traceEvents"] if e.get("ph") in ("s", "f", "i")]


def test_write_chrome_trace_round_trip(tmp_path, traced_run):
    path = tmp_path / "run.trace.json"
    doc = write_chrome_trace(path, traced_run.trace, label="toy/unit")
    loaded = json.load(open(path))
    assert loaded == json.loads(json.dumps(doc))
    assert loaded["traceEvents"]


def test_write_jsonl_one_object_per_event(tmp_path, traced_run):
    path = tmp_path / "events.jsonl"
    n = write_jsonl(path, traced_run.trace.events)
    lines = path.read_text().splitlines()
    assert n == len(lines) == len(traced_run.trace.events)
    first = json.loads(lines[0])
    assert {"eid", "ts_us", "proc", "kind"} <= set(first)
