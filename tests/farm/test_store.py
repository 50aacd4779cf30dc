"""Store backends: local/sqlite parity on put/get/claim, lease expiry
and reclaim, corrupt entries as misses, and the concurrent-writer
hammer (spawned processes racing the same cell)."""

import json
import multiprocessing
import sqlite3
import sys
import threading
import time

import pytest

from repro.bench.cache import build_entry
from repro.bench.harness import config_for
from repro.bench.pool import SweepCell
from repro.farm.store import (
    LocalDirBackend,
    ResultStore,
    SqliteBackend,
    open_store,
)

BACKENDS = ("local", "sqlite")


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_store(kind, tmp_path, **kwargs):
    if kind == "local":
        backend = LocalDirBackend(tmp_path / "store")
    else:
        backend = SqliteBackend(tmp_path / "store.sqlite")
    return ResultStore(backend, **kwargs)


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    return make_store(request.param, tmp_path, clock=FakeClock())


class TestResults:
    def test_roundtrip(self, store, jacobi_cells, jacobi_results):
        cell = jacobi_cells["4K"]
        assert store.get_result(cell) is None
        assert store.misses == 1
        store.put_result(cell, jacobi_results["4K"])
        assert store.get_result(cell) == jacobi_results["4K"]
        assert store.hits == 1
        assert store.has_result(cell)
        assert store.backend.result_count() == 1

    def test_put_is_idempotent(self, store, jacobi_cells, jacobi_results):
        cell = jacobi_cells["4K"]
        k1 = store.put_result(cell, jacobi_results["4K"])
        k2 = store.put_result(cell, jacobi_results["4K"])
        assert k1 == k2 == cell.key
        assert store.backend.result_count() == 1

    def test_find_entry_by_key(self, store, jacobi_cells, jacobi_results):
        cell = jacobi_cells["4K"]
        store.put_result(cell, jacobi_results["4K"])
        entry = store.backend.find_entry(cell.key)
        assert entry is not None and entry["key"] == cell.key
        assert store.backend.find_entry("0" * 24) is None

    def test_find_entry_matches_the_key_literally(
        self, store, jacobi_cells, jacobi_results
    ):
        key = store.put_result(jacobi_cells["4K"], jacobi_results["4K"])
        for pattern in ("*", "[0-9a-f]*", key[:4] + "*", "?" * len(key)):
            assert store.backend.find_entry(pattern) is None
        assert store.backend.find_entry(key)["key"] == key

    def test_corrupt_entry_is_a_miss(self, store, jacobi_cells,
                                     jacobi_results):
        cell = jacobi_cells["4K"]
        store.put_result(cell, jacobi_results["4K"])
        _corrupt_entry_payload(store.backend, cell)
        assert store.get_result(cell) is None
        assert not store.has_result(cell)

    def test_tampered_entry_fails_integrity_digest(
        self, store, jacobi_cells, jacobi_results
    ):
        cell = jacobi_cells["4K"]
        store.put_result(cell, jacobi_results["4K"])
        entry = store.backend.find_entry(cell.key)
        # Flip one counter without updating the digest: still valid
        # JSON, still the right key and schema -- only the digest can
        # catch it.
        entry["result"]["useful_messages"] += 1
        store.backend.save_entry(
            cell.app, cell.dataset, cell.label, cell.key, entry
        )
        assert store.get_result(cell) is None

    def test_pre_digest_entries_stay_warm(self, store, jacobi_cells,
                                          jacobi_results):
        # Entries written before integrity digests existed have no
        # "digest" field; they must still load (caches stay warm).
        cell = jacobi_cells["4K"]
        entry = build_entry(
            cell.app, cell.dataset, cell.label, config_for(cell.label),
            jacobi_results["4K"],
        )
        del entry["digest"]
        store.backend.save_entry(
            cell.app, cell.dataset, cell.label, cell.key, entry
        )
        assert store.get_result(cell) == jacobi_results["4K"]


def _corrupt_entry_payload(backend, cell):
    """Replace a stored entry with non-JSON garbage, per backend."""
    if isinstance(backend, LocalDirBackend):
        for path in backend.root.glob(f"*-{cell.key}.json"):
            path.write_text("{ truncated")
    else:
        import sqlite3

        con = sqlite3.connect(str(backend.path))
        con.execute(
            "UPDATE results SET entry = '{ truncated' WHERE key = ?",
            (cell.key,),
        )
        con.commit()
        con.close()


class TestQueue:
    def test_submit_dedupes_and_skips_done(self, store, jacobi_cells,
                                           jacobi_results):
        store.put_result(jacobi_cells["4K"], jacobi_results["4K"])
        cells = [
            jacobi_cells["4K"],
            jacobi_cells["8K"],
            SweepCell.make("Jacobi", "1Kx1K", "8K", unit_pages=2),  # alias
            jacobi_cells["16K"],
        ]
        report = store.submit(cells)
        assert report.requested == 4
        assert report.deduped == 3
        assert report.already_done == 1
        assert report.enqueued == 2
        again = store.submit(cells)
        assert again.enqueued == 0
        assert again.already_queued == 2

    def test_claim_complete_cycle(self, store, jacobi_cells,
                                  jacobi_results):
        store.submit([jacobi_cells["4K"], jacobi_cells["8K"]])
        first = store.claim("w1")
        assert first is not None
        assert first.generation == 1
        assert first.worker == "w1"
        second = store.claim("w2")
        assert second is not None
        assert second.key != first.key  # leased cells are not re-handed
        assert store.claim("w3") is None
        store.complete(first, jacobi_results[first.cell.label])
        store.complete(second, jacobi_results[second.cell.label])
        status = store.status()
        assert status.done == 2 and status.queued == 0 and status.claimed == 0
        assert store.has_result(jacobi_cells["4K"])

    def test_lease_expiry_reclaim_bumps_generation(self, store,
                                                   jacobi_cells):
        store.submit([jacobi_cells["4K"]])
        first = store.claim("w1")
        assert first is not None and first.generation == 1
        assert store.claim("w2") is None  # live lease
        store.clock.advance(store.lease_ttl + 1)
        reclaimed = store.claim("w2")
        assert reclaimed is not None
        assert reclaimed.key == first.key
        assert reclaimed.generation == 2
        assert reclaimed.worker == "w2"

    def test_lease_budget_exhaustion_abandons_cell(self, store,
                                                   jacobi_cells):
        store.max_generations = 2
        store.submit([jacobi_cells["4K"]])
        for _ in range(2):
            assert store.claim("w") is not None
            store.clock.advance(store.lease_ttl + 1)
        assert store.claim("w") is None
        status = store.status()
        assert status.failed == 1
        assert "abandoned" in status.failures[0][1]

    def test_deterministic_failure_is_not_retried(self, store,
                                                  jacobi_cells):
        store.submit([jacobi_cells["4K"]])
        claim = store.claim("w1")
        store.fail(claim, "retransmission budget exhausted")
        assert store.claim("w2") is None
        status = store.status()
        assert status.failed == 1
        assert status.failures[0][1] == "retransmission budget exhausted"

    def test_claim_skips_cell_whose_result_appeared(
        self, store, jacobi_cells, jacobi_results
    ):
        # A racing generation published the result while this queue row
        # still looked claimable: claim must mark it done, not hand it out.
        store.submit([jacobi_cells["4K"]])
        first = store.claim("w1")
        store.put_result(jacobi_cells["4K"], jacobi_results["4K"])
        store.clock.advance(store.lease_ttl + 1)
        assert store.claim("w2") is None
        assert store.status().done == 1
        # The original claimer completing afterwards is harmless.
        store.complete(first, jacobi_results["4K"])
        assert store.status().done == 1

    def test_expired_lease_visible_in_status(self, store, jacobi_cells):
        store.submit([jacobi_cells["4K"]])
        store.claim("w1")
        assert store.status().claimed == 1
        store.clock.advance(store.lease_ttl + 1)
        status = store.status()
        assert status.claimed == 0 and status.expired == 1


class TestParity:
    """The two backends expose identical observable behavior."""

    def test_status_parity_through_a_lifecycle(self, tmp_path, jacobi_cells,
                                               jacobi_results):
        snapshots = []
        for kind in BACKENDS:
            store = make_store(kind, tmp_path / kind, clock=FakeClock())
            store.submit([jacobi_cells[lb] for lb in ("4K", "8K", "16K")])
            claim = store.claim("w1")
            store.complete(claim, jacobi_results[claim.cell.label])
            store.claim("w2")
            snapshots.append(store.status().to_json_dict())
        assert snapshots[0] == snapshots[1]

    def test_entry_bytes_parity_with_disk_cache(self, tmp_path, jacobi_cells,
                                                jacobi_results):
        """LocalDirBackend writes byte-identical files to DiskCache, so a
        bench cache directory is a warm farm store and vice versa."""
        from repro.bench.cache import DiskCache

        cell = jacobi_cells["4K"]
        cache = DiskCache(tmp_path / "a")
        cache_path = cache.store(
            cell.app, cell.dataset, cell.label, config_for(cell.label),
            jacobi_results["4K"],
        )
        store = ResultStore(LocalDirBackend(tmp_path / "b"))
        store.put_result(cell, jacobi_results["4K"])
        farm_path = tmp_path / "b" / cache_path.name
        assert farm_path.is_file()
        assert farm_path.read_bytes() == cache_path.read_bytes()
        # Cross-reads: each layer loads the other's file.
        assert DiskCache(tmp_path / "b").load(
            cell.app, cell.dataset, cell.label, config_for(cell.label)
        ) == jacobi_results["4K"]
        assert ResultStore(LocalDirBackend(tmp_path / "a")).get_result(
            cell
        ) == jacobi_results["4K"]


# ----------------------------------------------------------------------
# Concurrent-writer hammer: spawned processes racing the same cell.
# ----------------------------------------------------------------------
def _hammer_writer(spec, entry_json, results_q):
    """Race: repeatedly store the same entry while readers watch."""
    from repro.farm.store import open_store

    store = open_store(spec)
    entry = json.loads(entry_json)
    for _ in range(20):
        store.backend.save_entry(
            entry["app"], entry["dataset"], entry["label"], entry["key"],
            entry,
        )
    results_q.put("ok")


def _hammer_reader(spec, cell_args, results_q):
    """Readers must only ever see a complete entry or a clean miss."""
    from repro.bench.pool import SweepCell
    from repro.farm.store import open_store

    store = open_store(spec)
    cell = SweepCell.make(*cell_args)
    seen = 0
    for _ in range(40):
        result = store.get_result(cell)
        if result is not None:
            seen += 1
    results_q.put(seen)


def _hammer_claimer(spec, worker_id, results_q):
    """All claimers race one queued cell; at most one wins generation 1."""
    from repro.farm.store import open_store

    store = open_store(spec)
    claim = store.claim(worker_id)
    results_q.put(None if claim is None else claim.generation)


@pytest.mark.parametrize("kind", BACKENDS)
def test_hammer_concurrent_writers_and_readers(kind, tmp_path, jacobi_cells,
                                               jacobi_results):
    cell = jacobi_cells["4K"]
    spec = (
        str(tmp_path / "store.sqlite") if kind == "sqlite"
        else str(tmp_path / "store")
    )
    entry = build_entry(
        cell.app, cell.dataset, cell.label, config_for(cell.label),
        jacobi_results["4K"],
    )
    ctx = multiprocessing.get_context("spawn")
    results_q = ctx.Queue()
    procs = [
        ctx.Process(target=_hammer_writer,
                    args=(spec, json.dumps(entry), results_q))
        for _ in range(3)
    ] + [
        ctx.Process(target=_hammer_reader,
                    args=(spec, (cell.app, cell.dataset, cell.label),
                          results_q))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    outcomes = [results_q.get(timeout=60) for _ in procs]
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    assert outcomes.count("ok") == 3  # every writer finished
    # The store holds exactly the one complete entry afterwards.
    store = open_store(spec)
    assert store.get_result(cell) == jacobi_results["4K"]
    assert store.backend.result_count() == 1


@pytest.mark.parametrize("kind", BACKENDS)
def test_hammer_claim_race_grants_one_lease(kind, tmp_path, jacobi_cells):
    spec = (
        str(tmp_path / "store.sqlite") if kind == "sqlite"
        else str(tmp_path / "store")
    )
    store = open_store(spec)
    store.submit([jacobi_cells["4K"]])
    ctx = multiprocessing.get_context("spawn")
    results_q = ctx.Queue()
    procs = [
        ctx.Process(target=_hammer_claimer, args=(spec, f"w{i}", results_q))
        for i in range(4)
    ]
    for p in procs:
        p.start()
    grants = [results_q.get(timeout=60) for _ in procs]
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    # Exactly one claimer won the (only) first-generation lease.
    assert grants.count(1) == 1
    assert grants.count(None) == 3


def test_open_store_dispatch(tmp_path):
    assert isinstance(
        open_store(tmp_path / "x.sqlite").backend, SqliteBackend
    )
    assert isinstance(open_store(tmp_path / "x.db").backend, SqliteBackend)
    assert isinstance(
        open_store(f"sqlite:{tmp_path}/y").backend, SqliteBackend
    )
    assert isinstance(open_store(tmp_path / "dir").backend, LocalDirBackend)
    assert isinstance(
        open_store(str(tmp_path / "dir2")).backend, LocalDirBackend
    )


# ----------------------------------------------------------------------
# SqliteBackend connection pool
# ----------------------------------------------------------------------
def _save_entry_in_child(path, entry_json):
    """Another process commits one entry and exits."""
    from repro.farm.store import SqliteBackend

    backend = SqliteBackend(path)
    entry = json.loads(entry_json)
    backend.save_entry(entry["app"], entry["dataset"], entry["label"],
                       entry["key"], entry)
    backend.close()


def _entry_for(cell, result):
    return build_entry(cell.app, cell.dataset, cell.label,
                       config_for(cell.label, **cell.kwargs), result)


class TestSqlitePool:
    def test_pooled_reader_sees_a_later_commit_of_another_process(
        self, tmp_path, jacobi_cells, jacobi_results
    ):
        path = tmp_path / "store.sqlite"
        reader = SqliteBackend(path)
        first, later = jacobi_cells["4K"], jacobi_cells["8K"]
        ResultStore(reader).put_result(first, jacobi_results["4K"])
        # Reads that leave a row behind and reads that miss, on the one
        # pooled connection: neither may pin a snapshot.
        assert reader.find_entry(first.key)["key"] == first.key
        assert reader.find_entry(later.key) is None
        assert reader.result_count() == 1
        assert len(reader._idle) == 1
        pooled = reader._idle[0]

        ctx = multiprocessing.get_context("spawn")
        child = ctx.Process(
            target=_save_entry_in_child,
            args=(str(path),
                  json.dumps(_entry_for(later, jacobi_results["8K"]))),
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0

        assert reader.find_entry(later.key)["key"] == later.key
        assert reader.result_count() == 2
        assert reader._idle == [pooled]  # still the same connection
        reader.close()

    @pytest.mark.parametrize("scope", ["_read", "_connect"])
    def test_exception_inside_a_connection_leaves_the_pool_usable(
        self, tmp_path, jacobi_cells, scope
    ):
        backend = SqliteBackend(tmp_path / "store.sqlite")
        store = ResultStore(backend, clock=FakeClock())
        cell = jacobi_cells["4K"]
        store.submit([cell])
        with pytest.raises(RuntimeError):
            with getattr(backend, scope)() as con:
                con.execute("BEGIN IMMEDIATE")
                con.execute("UPDATE queue SET worker = 'ghost'")
                raise RuntimeError("mid-transaction failure")
        # The failed connection was closed, not pooled; its write lock
        # and its uncommitted update are gone.
        assert con not in backend._idle
        with pytest.raises(sqlite3.ProgrammingError):
            con.execute("SELECT 1")
        assert backend.queue_lookup(cell.key).worker is None
        claim = store.claim("w0")
        assert claim is not None and claim.key == cell.key
        assert claim.generation == 1
        backend.close()

    def test_close_closes_idle_connections(self, tmp_path, jacobi_cells):
        backend = SqliteBackend(tmp_path / "store.sqlite")
        store = ResultStore(backend, clock=FakeClock())
        store.submit([jacobi_cells["4K"]])
        store.status()
        idle = list(backend._idle)
        assert idle
        backend.close()
        assert backend._idle == []
        for con in idle:
            with pytest.raises(sqlite3.ProgrammingError):
                con.execute("SELECT 1")
        # A closed backend reopens on demand.
        assert backend.result_count() == 0
        backend.close()

    def test_reader_threads_against_a_live_claim_loop(
        self, tmp_path, jacobi_cells, jacobi_results
    ):
        store = ResultStore(SqliteBackend(tmp_path / "store.sqlite"))
        store.submit(list(jacobi_cells.values()))
        by_key = {cell.key: label for label, cell in jacobi_cells.items()}
        done = threading.Event()
        errors = []
        reads = []

        def claim_loop():
            try:
                while (claim := store.claim("w0")) is not None:
                    time.sleep(0.01)
                    store.complete(claim, jacobi_results[by_key[claim.key]])
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)
            finally:
                done.set()

        def reader():
            n = 0
            try:
                while not done.is_set() or n < 8:
                    for label, cell in jacobi_cells.items():
                        got = store.get_result(cell)
                        assert got is None or got == jacobi_results[label]
                    status = store.status()
                    assert status.failed == 0
                    assert (status.queued + status.claimed + status.done
                            == len(jacobi_cells))
                    n += 1
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)
            reads.append(n)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        threads.append(threading.Thread(target=claim_loop))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the pool's check-then-pop
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(reads) == 8 and min(reads) >= 8
        assert all(store.get_result(c) is not None
                   for c in jacobi_cells.values())
        assert store.status().done == len(jacobi_cells)
        # One connection per concurrently active thread, at most.
        assert len(store.backend._idle) <= 9
        store.close()
