"""Pin the recorded event stream across commits.

Each case is one cheap traced run; its pins are the sha256 of the
:func:`write_jsonl` bytes and of the sort-keyed :func:`chrome_trace`
JSON.  Refactoring the recorder, the events or any emitting layer must
leave both byte-identical.  Together the runs emit every event kind.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from repro.apps.base import run_app
from repro.bench.harness import config_for
from repro.faults.plan import FaultPlan
from repro.trace import events
from repro.trace.export import chrome_trace, write_jsonl

from tests.conftest import tiny_app

DROP_DUP = FaultPlan.uniform(seed=5, drop_rate=0.15, dup_rate=0.1).canonical()

#: ``name -> (app, label, config overrides)``; all on 4 processors.
CASES = {
    "tsp-4k": ("TSP", "4K", {}),
    "tsp-dyn": ("TSP", "Dyn", {}),
    "jacobi-hlrc": ("Jacobi", "4K", {"protocol": "hlrc"}),
    "jacobi-erc": ("Jacobi", "4K", {"protocol": "erc"}),
    "jacobi-swi": ("Jacobi", "4K", {"protocol": "swi"}),
    "jacobi-drop-dup": ("Jacobi", "4K", {"fault_plan": DROP_DUP}),
}

#: ``name -> (jsonl sha256, chrome-trace sha256)``.
PINS = {
    "tsp-4k": (
        "8a560db2af62927f7d9990e111f2439386711cb2dff774162bce7b140dc52a9d",
        "a848b7d9ea4974916a922d80ec644f851790a980a4ebe2eefb41ae7d70405fd6",
    ),
    "tsp-dyn": (
        "d287c14235d7e75d775d802773f829d2a248ec2371529af1898f9485827b6f99",
        "86ad3a055d674aee2701f3de066611029f8a18e3a33de45261e352b55f927595",
    ),
    "jacobi-hlrc": (
        "f9985d6a70265bf2e780bf5c3d25c65301208146d26b778981f2c5148d8b7c70",
        "3e5795945241aa7e08d591416262118b554758225c927bb59cc11db199ac4906",
    ),
    "jacobi-erc": (
        "a7f685cdb3fc705d7189f7234ddab1cb452a41b69aa8d0691430a8cc55fdd0e0",
        "b5f5c35003885ca6ec1b862896b70da5c94b3b6e4d5bc440f96671369d57c43c",
    ),
    "jacobi-swi": (
        "1afd9fef32bd525bb663ff2d79c55798c1a40d8b3bc140cd342cb6361fdf0468",
        "479a8e7b3c08b9e5d5b891710211a90365d7eec838b40b76de558631f92b72e6",
    ),
    "jacobi-drop-dup": (
        "5cdfdba3f4277a7b653d6abe0447eb48a5c5d2f96ed46a5116802d2a87f1a9d7",
        "91c5c3e1aced1e4934f650e81e41595857d233397b4affd5dc4afb7ea80d553a",
    ),
}


def _traced(name):
    app_name, label, extra = CASES[name]
    app, ds = tiny_app(app_name)
    np.random.seed(0)  # detlint: ok(global-random)
    random.seed(0)  # detlint: ok(global-random)
    return run_app(app, ds, config_for(label, nprocs=4, trace=True, **extra))


@pytest.fixture(scope="module")
def runs():
    return {name: _traced(name) for name in CASES}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_bytes_are_pinned(runs, name, tmp_path):
    trace = runs[name].trace
    path = tmp_path / "events.jsonl"
    write_jsonl(path, trace.events)
    jsonl = hashlib.sha256(path.read_bytes()).hexdigest()
    doc = json.dumps(chrome_trace(trace), sort_keys=True).encode()
    chrome = hashlib.sha256(doc).hexdigest()
    assert (jsonl, chrome) == PINS[name]


def test_runs_emit_every_event_kind(runs):
    emitted = {ev.kind for res in runs.values() for ev in res.trace.events}
    declared = {
        cls.kind
        for cls in vars(events).values()
        if isinstance(cls, type)
        and issubclass(cls, events.TraceEvent)
        and cls is not events.TraceEvent
    }
    assert len(declared) == 20
    assert emitted == declared
