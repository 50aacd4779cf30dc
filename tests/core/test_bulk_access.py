"""Clock-charge pinning for the bulk region-access API.

The bulk fast path folds per-range clock charges analytically
(:meth:`repro.dsm.lrc.LrcProc._fold_end`) and resolves faults, twins,
and diff costs per touched unit.  These tests pin the charging model to
*hand-derived* arithmetic spelled out from the raw ``SimConfig``
constants: a 3-page ``write_range`` by a second writer after a barrier,
under each protocol of the zoo.  Any change to the analytic model (or
to a protocol's fault path) that alters a charge must show up here as
an explicit number, not only as drift in an opaque golden counter.

The last test pins how much of each application's traffic the batched
path serves: the reference loop is bit-identical, so only a count can
notice the fast path switching off.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench.golden import SMALL_DATASETS
from repro.bench.harness import run_case
from repro.core import SimConfig, TreadMarks
from repro.dsm.lrc import LrcProc
from repro.sim.clock import Clock

PAGE = 4096          # unit_pages=1 -> one 4 KB page per consistency unit
WPU = PAGE // 4      # 1024 words per unit
NUNITS = 3
W = NUNITS * WPU     # the 3-page write_range, in words


def _msg(cfg: SimConfig, payload: int) -> float:
    """``SimConfig.msg_cost_us`` written out by hand."""
    return cfg.msg_latency_us + (payload + cfg.msg_header_bytes) * cfg.byte_time_us


def _run_second_writer(protocol: str) -> tuple:
    """Proc 0 writes 3 pages and crosses a barrier; proc 1 then writes
    the same 3 pages.  Returns (charge to proc 1's clock for its
    write_range, the run's ProtocolStats)."""
    cfg = SimConfig(nprocs=2, unit_pages=1, protocol=protocol)
    tmk = TreadMarks(cfg, heap_bytes=NUNITS * PAGE)
    measured = {}

    def body(proc):
        vals = np.arange(1, W + 1, dtype=np.uint32)  # every word changes
        if proc.id == 0:
            proc.write_range(0, vals)
        proc.barrier()
        if proc.id == 1:
            t0 = proc.time_us
            proc.write_range(0, vals)
            measured["charge"] = proc.time_us - t0

    res = tmk.run(body)
    return measured["charge"], res.stats


def test_tm_lrc_charges():
    """tm-lrc: three per-unit faults (word-granularity diffs, lazily
    scanned on first request), three twins, one region access charge."""
    charge, stats = _run_second_writer("tm-lrc")
    cfg = SimConfig(nprocs=2, unit_pages=1)
    # One fault per invalid unit (static unit: no cross-unit combining).
    # The single writer's diff covers the whole page as one run:
    # 16-byte diff header + 8-byte run header + 1024 words.
    req_bytes = 8 + 12 * 1                    # REQUEST_BASE + 1 entry
    reply_bytes = 16 + 8 + WPU * 4
    stall = (
        _msg(cfg, req_bytes)
        + cfg.diff_service_us
        + PAGE * cfg.diff_create_byte_us      # lazy scan, first request
        + _msg(cfg, reply_bytes)
        + 2 * cfg.msg_cpu_us
    )
    fault = (
        cfg.fault_trap_us
        + cfg.mprotect_us                     # revalidate the unit
        + stall
        + PAGE * cfg.diff_apply_byte_us
    )
    twin = cfg.mprotect_us + PAGE * cfg.twin_byte_us
    access = cfg.region_op_us + W * cfg.word_access_us
    assert charge == pytest.approx(3 * fault + 3 * twin + access, rel=1e-12)
    assert stats.faults == NUNITS
    assert stats.twins == 2 * NUNITS          # both writers twin 3 units
    assert stats.diffs_created == NUNITS
    assert stats.diffs_applied == NUNITS


def test_hlrc_charges():
    """hlrc: homes are ``unit % 2`` -- proc 1 is home of unit 1 (kept
    current by the flush, no fault); units 0 and 2 fault with one
    whole-unit round trip to home proc 0 each."""
    charge, stats = _run_second_writer("hlrc")
    cfg = SimConfig(nprocs=2, unit_pages=1)
    req_bytes = 8 + 12 * 1
    reply_bytes = PAGE + 16                   # full unit + diff header
    stall = (
        _msg(cfg, req_bytes)
        + cfg.diff_service_us                 # diff was pre-scanned at release
        + _msg(cfg, reply_bytes)
        + 2 * cfg.msg_cpu_us
    )
    fault = (
        cfg.fault_trap_us
        + cfg.mprotect_us
        + stall
        + PAGE * cfg.twin_byte_us             # whole-unit copy-in
    )
    twin = cfg.mprotect_us + PAGE * cfg.twin_byte_us
    access = cfg.region_op_us + W * cfg.word_access_us
    assert charge == pytest.approx(2 * fault + 3 * twin + access, rel=1e-12)
    assert stats.faults == 2


def test_erc_charges():
    """erc: the release pushed every diff eagerly -- proc 1 never
    faults; it pays only its own twins and the access charge."""
    charge, stats = _run_second_writer("erc")
    cfg = SimConfig(nprocs=2, unit_pages=1)
    twin = cfg.mprotect_us + PAGE * cfg.twin_byte_us
    access = cfg.region_op_us + W * cfg.word_access_us
    assert charge == pytest.approx(3 * twin + access, rel=1e-12)
    assert stats.faults == 0


def test_swi_charges():
    """swi: three whole-unit refetches from the owner, then three
    ownership acquisitions (transfer round trip + one invalidation
    round trip to the previous owner, who re-entered the copyset when
    it served the refetch).  No twins: coherence is per access."""
    charge, stats = _run_second_writer("swi")
    cfg = SimConfig(nprocs=2, unit_pages=1)
    req_bytes = 8 + 12 * 1
    reply_bytes = PAGE + 16
    stall = (
        _msg(cfg, req_bytes)
        + cfg.diff_service_us
        + _msg(cfg, reply_bytes)
        + 2 * cfg.msg_cpu_us
    )
    fault = (
        cfg.fault_trap_us
        + cfg.mprotect_us
        + stall
        + PAGE * cfg.twin_byte_us
    )
    take_ownership = (
        cfg.fault_trap_us + cfg.mprotect_us   # write-protection trap
        + _msg(cfg, 16) + _msg(cfg, 16) + 2 * cfg.msg_cpu_us  # transfer
        + _msg(cfg, 12) + _msg(cfg, 8) + 2 * cfg.msg_cpu_us   # invalidate
    )
    access = cfg.region_op_us + W * cfg.word_access_us
    expected = 3 * fault + 3 * take_ownership + access
    assert charge == pytest.approx(expected, rel=1e-12)
    assert stats.faults == NUNITS
    assert stats.twins == 0
    assert stats.ownership_transfers == NUNITS


# ----------------------------------------------------------------------
# The clock fold
# ----------------------------------------------------------------------
def _fold_end(now: float, n: int, per: float) -> float:
    fake = SimpleNamespace(clock=Clock(now))
    return LrcProc._fold_end(fake, n, per)


def test_fold_end_bit_identical_to_advance_loop():
    """``_fold_end(n, per)`` must equal ``n`` sequential
    ``Clock.advance(per)`` calls *bitwise* -- the fast path folds the
    reference loop's float additions, it does not approximate them.
    ``cumsum`` accumulates left-to-right in float64, the same
    associativity as repeated ``+=``."""
    rng = np.random.default_rng(42)
    for _ in range(300):
        now = float(rng.uniform(0.0, 1e8))
        per = float(rng.choice([0.012, 1.0, 13.288, rng.uniform(0, 50)]))
        n = int(rng.integers(0, 400))
        clock = Clock(now)
        for _i in range(n):
            clock.advance(per)
        assert _fold_end(now, n, per) == clock.now  # exact, not approx


def test_fold_end_zero_ranges_is_identity():
    assert _fold_end(123.456, 0, 7.89) == 123.456


# ----------------------------------------------------------------------
# The fast path stays on
# ----------------------------------------------------------------------
#: Per application, its small golden cell at 4K in bulk mode, untraced:
#: gathers and scatters ``_batched`` served, gathers and scatters it
#: declined to the reference loop, and ``read_words`` / ``write_words``
#: calls (the apps' word and contiguous accesses plus any reference-loop
#: ranges).
SHARE_FIELDS = ("gathers", "scatters", "declined", "read_words", "write_words")
FAST_PATH_SHARE = {
    "3D-FFT": (0, 0, 0, 544, 56),
    "Barnes": (126, 18, 0, 0, 10),
    "ILINK": (216, 192, 0, 16, 3),
    "Jacobi": (0, 0, 0, 40, 40),
    "MGS": (0, 0, 0, 5520, 4752),
    "Shallow": (0, 0, 0, 399, 454),
    "TSP": (0, 74, 0, 9368, 5135),
    "Water": (56, 64, 0, 16, 25),
}


@pytest.mark.parametrize("app", sorted(FAST_PATH_SHARE))
def test_fast_path_share_is_pinned(app, monkeypatch):
    """A change that sends bulk accesses back to the reference loop
    keeps every golden counter, so ``tests/equivalence`` cannot see it;
    these counts do."""
    counts = Counter()
    batched = LrcProc._batched
    read_words = LrcProc.read_words
    write_words = LrcProc.write_words

    def counting_batched(self, starts, nwords, write):
        served = batched(self, starts, nwords, write)
        if not served:
            counts["declined"] += 1
        else:
            counts["scatters" if write else "gathers"] += 1
        return served

    def counting_read_words(self, word0, nwords):
        counts["read_words"] += 1
        return read_words(self, word0, nwords)

    def counting_write_words(self, word0, values):
        counts["write_words"] += 1
        return write_words(self, word0, values)

    monkeypatch.setattr(LrcProc, "_batched", counting_batched)
    monkeypatch.setattr(LrcProc, "read_words", counting_read_words)
    monkeypatch.setattr(LrcProc, "write_words", counting_write_words)
    run_case(app, SMALL_DATASETS[app], "4K")
    share = dict(zip(SHARE_FIELDS, FAST_PATH_SHARE[app], strict=True))
    assert counts == Counter(share)
