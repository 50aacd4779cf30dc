"""Whole-run protocol invariants, checked over real application runs.

These are the DESIGN.md section-5 invariants that must hold for ANY
workload; they are checked here over several full application runs
(cheap piggybacking on the tiny datasets).
"""

import pytest

from repro.core.treadmarks import TreadMarks
from repro.sim.config import SimConfig
from repro.sim.network import DATA_CLASSES, MessageClass
from tests.conftest import tiny_app

CASES = ["Jacobi", "MGS", "Water", "ILINK", "TSP"]


def full_run(name, **cfg):
    app, ds = tiny_app(name)
    params = app.params(ds)
    tmk = TreadMarks(
        SimConfig(nprocs=8, **cfg),
        heap_bytes=app.heap_bytes(ds),
        app_name=name,
        dataset=ds,
    )
    handles = app.setup(tmk, ds)
    res = tmk.run(lambda proc: app.worker(proc, handles, params))
    return tmk, res


@pytest.mark.parametrize("name", CASES)
def test_every_exchange_closed_and_paired(name):
    tmk, _ = full_run(name)
    for ex in tmk.network.exchanges:
        assert ex.request_msg >= 0 and ex.reply_msg >= 0
        req = tmk.network.messages[ex.request_msg]
        reply = tmk.network.messages[ex.reply_msg]
        assert req.klass is MessageClass.DIFF_REQUEST
        assert reply.klass is MessageClass.DIFF_REPLY
        assert req.src == reply.dst == ex.requester
        assert req.dst == reply.src == ex.writer


@pytest.mark.parametrize("name", CASES)
def test_useful_words_never_exceed_carried(name):
    tmk, _ = full_run(name)
    for msg in tmk.network.messages:
        if msg.klass in DATA_CLASSES:
            assert 0 <= msg.words_useful <= msg.words_carried


@pytest.mark.parametrize("name", CASES)
def test_fault_exchange_accounting(name):
    tmk, res = full_run(name)
    # Every data-fault's exchange ids exist and reference its requester.
    for rec in res.stats.fault_records:
        if rec.monitoring:
            assert rec.exchange_ids == ()
            continue
        assert len(rec.exchange_ids) >= 1
        for ex_id in rec.exchange_ids:
            assert tmk.network.exchanges[ex_id].requester == rec.proc
    # With request combining, exchanges per fault == distinct writers.
    for rec in res.stats.fault_records:
        if not rec.monitoring:
            assert len(rec.exchange_ids) == rec.writers


@pytest.mark.parametrize("name", ["Jacobi", "Water"])
def test_no_pending_words_left_in_dirty_state(name):
    """Word usefulness totals are consistent: useful + pending-at-end +
    overwritten == carried, per processor tracker conservation."""
    tmk, _ = full_run(name)
    carried = sum(
        m.words_carried
        for m in tmk.network.messages
        if m.klass in DATA_CLASSES
    )
    useful = sum(
        m.words_useful
        for m in tmk.network.messages
        if m.klass in DATA_CLASSES
    )
    pending = sum(lp.tracker.pending_count() for lp in tmk.procs)
    assert useful + pending <= carried


@pytest.mark.parametrize("name", CASES)
def test_clock_monotonicity_and_positive_time(name):
    _, res = full_run(name)
    assert res.time_us > 0
    assert all(t >= 0 for t in res.proc_times_us)
    assert res.time_us == max(res.proc_times_us)
