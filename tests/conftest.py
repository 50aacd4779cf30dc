"""Shared test fixtures and helpers."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.apps.base import Application, get_app, run_app
from repro.bench.cache import cell_seed
from repro.bench.golden import SMALL_DATASETS
from repro.bench.harness import config_for
from repro.sim.config import SimConfig


def tiny_app(name: str) -> tuple:
    """An application instance with a shrunken 'tiny' dataset injected,
    for fast correctness/coherence tests (the granularity/page ratios of
    the paper datasets are not preserved -- trend tests use the real
    datasets)."""
    app = get_app(name)
    tiny = {
        "Jacobi": {"rows": 32, "cols": 1024, "iters": 2},
        "MGS": {"nvec": 16, "dim": 1024},
        "3D-FFT": {"n1": 16, "n2": 32, "n3": 32, "iters": 1},
        "Shallow": {"nrows": 512, "ncols": 16, "iters": 2},
        "Barnes": {"n": 200, "iters": 1, "max_cells": 2048},
        "Water": {"n": 48, "iters": 1},
        "ILINK": {"narrays": 2, "length": 512, "iters": 2, "stride": 4},
        "TSP": {"n": 8, "max_tours": 1024, "local_depth": 5},
    }[name]
    app.datasets = {**app.datasets, "tiny": tiny}
    return app, "tiny"


def checksum_close(app: Application, a: float, b: float) -> bool:
    """Compare checksums under the application's tolerance."""
    return abs(a - b) <= max(app.checksum_rtol * abs(b), 1e-9)


@pytest.fixture
def cfg4():
    """8 processors, 4 KB unit (the paper's baseline)."""
    return SimConfig(nprocs=8, unit_pages=1)


@pytest.fixture
def cfg_small():
    """4 processors, 4 KB unit: cheap protocol-level scenarios."""
    return SimConfig(nprocs=4, unit_pages=1)


def traced_run(app_name: str, label: str, access_mode: str):
    """One traced run of an application's small golden cell, seeded
    exactly like the corresponding :func:`repro.bench.harness.run_case`
    cell; ``result.trace.events`` is its event stream."""
    ds = SMALL_DATASETS[app_name]
    config = config_for(label, trace=True, access_mode=access_mode)
    seed = cell_seed(app_name, ds, config)
    np.random.seed(seed)  # detlint: ok(global-random)
    random.seed(seed)  # detlint: ok(global-random)
    return run_app(get_app(app_name), ds, config)


@pytest.fixture(scope="session")
def traced_small_4k():
    """``app -> RunResult``: :func:`traced_run` of the app's small cell
    at 4K in bulk mode, made at most once per session for every test
    that asks.  The result is shared: read it, never mutate it."""
    runs = {}

    def get(app_name: str):
        if app_name not in runs:
            runs[app_name] = traced_run(app_name, "4K", "bulk")
        return runs[app_name]

    return get


ALL_APPS = ["Barnes", "ILINK", "Jacobi", "MGS", "Shallow", "TSP", "Water", "3D-FFT"]

UNIT_CONFIGS = {
    "4K": dict(unit_pages=1),
    "8K": dict(unit_pages=2),
    "16K": dict(unit_pages=4),
    "Dyn": dict(dynamic=True),
}


def pytest_collection_modifyitems(config, items):
    """Tests marked ``ci_only`` are gates a CI job selects by marker
    (``pytest -m ci_only ...``); a run that does not ask for the marker
    -- the tier-1 suite -- skips them."""
    if "ci_only" in (config.getoption("markexpr") or ""):
        return
    skip = pytest.mark.skip(reason="CI gate: select with -m ci_only")
    for item in items:
        if "ci_only" in item.keywords:
            item.add_marker(skip)
