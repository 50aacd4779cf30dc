"""Per-page false-sharing attribution and the barrier-epoch rule."""

import pytest

from repro.apps.base import get_app, run_app
from repro.bench.golden import SMALL_DATASETS
from repro.bench.harness import config_for
from repro.sim.config import SimConfig
from repro.trace.attribution import (
    attribute_pages,
    concurrent_write_pages,
    phase_rows,
    render_attribution,
    render_phases,
)

from tests.conftest import tiny_app


@pytest.fixture(scope="module")
def mgs_8k():
    """MGS at an 8 KB unit: the paper's useless-message explosion."""
    app, ds = tiny_app("MGS")
    return run_app(app, ds, SimConfig(nprocs=8, unit_pages=2, trace=True))


@pytest.fixture(scope="module")
def jacobi_4k():
    app, ds = tiny_app("Jacobi")
    return run_app(app, ds, SimConfig(nprocs=8, unit_pages=1, trace=True))


def test_rows_are_ranked_by_useless_bytes(mgs_8k):
    rows = attribute_pages(mgs_8k.trace)
    keys = [(-r.useless_words, r.page) for r in rows]
    assert keys == sorted(keys)


def test_useless_traffic_localized_with_labels(mgs_8k):
    rows = attribute_pages(mgs_8k.trace)
    assert mgs_8k.comm.useless_messages > 0  # precondition of the scenario
    assert any(r.useless_words > 0 for r in rows)
    top = rows[0]
    assert top.useless_words > 0
    assert top.allocation != ""


def test_totals_match_diff_traffic(mgs_8k):
    rows = attribute_pages(mgs_8k.trace)
    total_words = sum(r.words_received for r in rows)
    applied = sum(
        ev.nwords for ev in mgs_8k.trace.events if ev.kind == "diff_apply"
    )
    assert total_words == applied
    for r in rows:
        assert r.useful_words + r.useless_words == pytest.approx(r.words_received)


def test_useless_message_count_is_conserved(mgs_8k):
    rows = attribute_pages(mgs_8k.trace)
    attributed = sum(r.useless_messages for r in rows)
    # Each useless *exchange* counts two messages (request + reply) in
    # the run breakdown but attributes its one data-carrying reply.
    assert attributed == pytest.approx(mgs_8k.comm.useless_messages / 2)


def test_no_useless_attribution_when_run_has_none(jacobi_4k):
    assert jacobi_4k.comm.useless_messages == 0
    assert jacobi_4k.comm.piggybacked_useless_bytes == 0
    rows = attribute_pages(jacobi_4k.trace)
    assert rows, "Jacobi still ships useful boundary diffs"
    assert all(r.useless_words == pytest.approx(0.0) for r in rows)
    assert all(r.useless_messages == 0 for r in rows)


def test_fault_counts_cover_faulting_pages(jacobi_4k):
    rows = attribute_pages(jacobi_4k.trace)
    assert sum(r.faults for r in rows) >= jacobi_4k.stats.faults


def test_render_lists_top_pages(mgs_8k):
    rows = attribute_pages(mgs_8k.trace)
    text = render_attribution(rows, top=3)
    assert "False-sharing attribution" in text
    # Header + 3 rows.
    assert len(text.splitlines()) == 2 + 3
    assert rows[0].allocation[:16] in text


def test_render_empty():
    assert "no diff traffic" in render_attribution([])


# ------------------------------------------------------- barrier epochs
#: ``concurrent_write_pages`` of each application's small golden cell at
#: 4K.  ``benchmarks/analyze`` (crosscheck and layout baselines) pins
#: these pages, so the barrier-epoch rule may not move them.
CONCURRENT_WRITE_PAGES = {
    "3D-FFT": [512],
    "Barnes": [2, 4, 6, 8, 10, 12, 14],
    "ILINK": list(range(16)),
    "Jacobi": [],
    "MGS": [],
    "Shallow": [],
    "TSP": [3, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
            257, 261, 265],
    "Water": [1, 3, 5, 6, 8, 10, 11, 14],
}

PHASE_COUNTS = (
    ("faults", "fault"),
    ("diff_creates", "diff_create"),
    ("messages", "message"),
)


@pytest.fixture(params=sorted(SMALL_DATASETS))
def small_4k(request, traced_small_4k):
    """One traced run of an application's small golden cell at 4K."""
    app = request.param
    return app, traced_small_4k(app).trace


def test_phase_table_has_one_row_per_epoch(small_4k):
    _, trace = small_4k
    departs = max(
        sum(
            1 for ev in trace.events
            if ev.kind == "barrier_depart" and ev.proc == p
        )
        for p in range(trace.config.nprocs)
    )
    rows = phase_rows(trace)
    assert [r.epoch for r in rows] == list(range(departs + 1))


def test_phase_counts_sum_to_trace_totals(small_4k):
    """Every fault, diff-create and message event lands in exactly one
    epoch."""
    _, trace = small_4k
    rows = phase_rows(trace)
    for column, kind in PHASE_COUNTS:
        assert sum(getattr(r, column) for r in rows) == len(
            [ev for ev in trace.events if ev.kind == kind]
        ), column


def test_concurrent_write_pages_pinned(small_4k):
    app, trace = small_4k
    assert concurrent_write_pages(trace) == CONCURRENT_WRITE_PAGES[app]


def test_jacobi_phase_table():
    """Jacobi 1Kx1K@4K: 10 barriers, so 11 epochs holding all 56 faults,
    56 diff creations and 252 messages; busy time per epoch is each
    processor's arrival minus its previous departure, summed."""
    res = run_app(get_app("Jacobi"), "1Kx1K", config_for("4K", trace=True))
    rows = phase_rows(res.trace)
    totals = tuple(sum(getattr(r, c) for r in rows) for c, _ in PHASE_COUNTS)
    assert totals == (56, 56, 252)
    assert [round(r.busy_us / 1000.0, 2) for r in rows] == [
        6.27, 36.90, 1.19, 36.89, 1.19, 36.89, 1.19, 36.89, 1.19, 1.19, 0.0,
    ]
    text = render_phases(rows)
    assert text.startswith("Per-phase simulated cost (barrier epochs)")
    assert len(text.splitlines()) == 2 + len(rows)
