"""Content-addressed result store with a pluggable backend and a
claim/lease work queue.

The store holds two things, both keyed by the content-addressed cell key
of :func:`repro.bench.cache.cell_key` (code version + app + dataset +
canonical config):

* **results** -- the same self-describing JSON entries the local disk
  cache writes (:func:`repro.bench.cache.build_entry`), integrity-digested
  and validated on read;
* a **work queue** -- cells submitted for computation, claimed by
  workers under expiring leases.

Because cells are deterministic and identity-hashed, the store is the
*only* coordination a fleet of workers needs: any worker that claims a
cell computes exactly the bytes every other worker would, so the queue
only has to make duplicated work rare, not impossible.  The lease
protocol makes cells *at-most-once-usefully*: a live lease keeps other
workers away, an expired lease (crashed worker) is reclaimed under a new
generation number, and a cell is computed at most once per lease
generation.  A cell whose lease expires ``max_generations`` times is
abandoned as failed rather than looping forever.

Backends:

* :class:`LocalDirBackend` -- a :class:`repro.bench.cache.DiskCache`
  (so a pre-existing cache directory is a warm store and vice versa)
  plus the queue in a ``queue/`` subdirectory.  Claims use
  ``O_CREAT | O_EXCL`` lease files, so they are atomic for any number of
  processes sharing the directory (including over NFS-style shared
  mounts that honor exclusive create).
* :class:`SqliteBackend` -- a single-file SQLite database in WAL mode;
  claims are ``BEGIN IMMEDIATE`` transactions, safe for many concurrent
  writers, and the natural choice when workers share one filesystem or
  the file lives on a network store with proper locking.
"""

from __future__ import annotations

import abc
import contextlib
import json
import os
import pathlib
import re
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.bench.cache import (
    DiskCache, atomic_write_text, build_entry, decode_entry, parsed,
)
from repro.bench.harness import CaseResult, config_for
from repro.bench.pool import SweepCell, dedupe_cells

#: Queue states persisted by the backends.  ``claimed`` with an expired
#: lease is *effectively* queued again; :meth:`ResultStore.status`
#: reports it as ``expired``.
QUEUE_STATES = ("queued", "claimed", "done", "failed")

#: Default lease duration.  Cells take seconds; a lease an order of
#: magnitude longer means reclaims only ever follow real crashes.
DEFAULT_LEASE_TTL = 300.0

#: Default bound on lease generations per cell: a cell that kills its
#: worker this many times is abandoned as failed, not retried forever.
DEFAULT_MAX_GENERATIONS = 3


def cell_to_json(cell: SweepCell) -> Dict[str, Any]:
    """A sweep cell's queue serialization (identity *and* spelling)."""
    return {
        "app": cell.app,
        "dataset": cell.dataset,
        "label": cell.label,
        "extra": dict(cell.extra),
    }


def cell_from_json(data: Dict[str, Any]) -> SweepCell:
    """Rebuild a sweep cell from :func:`cell_to_json` output."""
    return SweepCell.make(
        data["app"], data["dataset"], data["label"], **data["extra"]
    )


@dataclass(frozen=True)
class Claim:
    """One granted lease on one queued cell."""

    cell: SweepCell
    key: str
    worker: str
    generation: int
    expires: float


@dataclass(frozen=True)
class QueueEntry:
    """One queue row, as the backend stores it."""

    key: str
    seq: int
    cell: SweepCell
    state: str
    worker: Optional[str] = None
    lease_expires: Optional[float] = None
    generation: int = 0
    error: Optional[str] = None


class StoreBackend(abc.ABC):
    """Storage interface behind :class:`ResultStore`.

    Result entries are opaque validated-elsewhere JSON dicts; the queue
    methods implement the claim/lease protocol documented in the module
    docstring.  All methods must be safe to call from many processes
    (and, for the HTTP service, many threads) at once.
    """

    # -- results ------------------------------------------------------
    @abc.abstractmethod
    def load_entry(
        self, app: str, dataset: str, label: str, key: str
    ) -> Optional[Dict[str, Any]]:
        """The stored entry for one cell, or None."""

    @abc.abstractmethod
    def save_entry(
        self, app: str, dataset: str, label: str, key: str,
        entry: Dict[str, Any],
    ) -> None:
        """Store one cell's entry atomically (write-temp+rename or
        upsert); racing writers publish identical bytes, so last wins."""

    @abc.abstractmethod
    def find_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """Entry lookup by bare key (the service's raw-cell endpoint)."""

    @abc.abstractmethod
    def result_count(self) -> int:
        """Number of stored result entries."""

    # -- queue --------------------------------------------------------
    @abc.abstractmethod
    def enqueue(self, key: str, cell: SweepCell, seq: int) -> bool:
        """Add one cell to the queue, or return its ``done`` row to
        ``queued`` with no lease history (the caller found no verifying
        entry); False when the row is queued, claimed or failed."""

    @abc.abstractmethod
    def claim(
        self, worker: str, now: float, ttl: float, max_generations: int
    ) -> Optional[Claim]:
        """Claim the next available cell (queued, or claimed with an
        expired lease) under a fresh lease generation; None when nothing
        is claimable.  Cells past ``max_generations`` are marked failed,
        and cells whose entry :func:`repro.bench.cache.parsed` accepts
        are marked done, as side
        effects rather than handed out."""

    @abc.abstractmethod
    def mark_done(self, key: str) -> None:
        """Record that a cell's result is stored."""

    @abc.abstractmethod
    def mark_failed(self, key: str, error: str) -> None:
        """Record a permanent failure (deterministic error or lease
        budget exhausted)."""

    @abc.abstractmethod
    def queue_entries(self) -> List[QueueEntry]:
        """Every queue row (for status reporting and the facade)."""

    def queue_lookup(self, key: str) -> Optional[QueueEntry]:
        """One queue row by key (default: scan; backends may override)."""
        for entry in self.queue_entries():
            if entry.key == key:
                return entry
        return None

    def close(self) -> None:
        """Release backend resources (no-op by default)."""


# ----------------------------------------------------------------------
# Local directory backend
# ----------------------------------------------------------------------
_LEASE_RE = re.compile(r"\.g(\d+)\.lease$")


class LocalDirBackend(DiskCache, StoreBackend):
    """Directory-of-JSON-files backend: a
    :class:`repro.bench.cache.DiskCache`, whose entry methods are the
    result half of this interface, plus a work queue.

    The queue lives under ``queue/``: one ``<key>.cell.json`` item per
    cell plus one ``<key>.g<N>.lease`` file per lease generation.
    Exclusive file creation makes lease grants atomic; lease files carry
    ``{worker, expires}`` and fall back to ``mtime + ttl`` if a claimer
    died between creating and filling one.
    """

    @property
    def queue_dir(self) -> pathlib.Path:
        return self.root / "queue"

    # -- queue --------------------------------------------------------
    def _item_path(self, key: str) -> pathlib.Path:
        return self.queue_dir / f"{key}.cell.json"

    def _lease_path(self, key: str, generation: int) -> pathlib.Path:
        return self.queue_dir / f"{key}.g{generation}.lease"

    def _latest_lease(
        self, key: str, ttl: float
    ) -> Tuple[int, Optional[str], Optional[float]]:
        """(generation, worker, expires) of the newest lease; generation
        0 when the cell has never been claimed."""
        best_gen, worker, expires = 0, None, None
        for path in self.queue_dir.glob(f"{key}.g*.lease"):
            m = _LEASE_RE.search(path.name)
            if not m:
                continue
            gen = int(m.group(1))
            if gen <= best_gen:
                continue
            data = self._read_json(path) or {}
            best_gen = gen
            worker = data.get("worker")
            expires = data.get("expires")
            if not isinstance(expires, (int, float)):
                # Claimer died between creating and filling the lease
                # file: treat it as a normal lease aged from its mtime.
                try:
                    expires = path.stat().st_mtime + ttl
                except OSError:
                    expires = 0.0
        return best_gen, worker, float(expires) if expires is not None else None

    def enqueue(self, key: str, cell: SweepCell, seq: int) -> bool:
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        item = {
            "key": key,
            "seq": seq,
            "cell": cell_to_json(cell),
            "state": "queued",
            "error": None,
        }
        try:
            fd = os.open(
                self._item_path(key), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            present = self._read_json(self._item_path(key))
            if present is None or present.get("state") != "done":
                return False
            for path in self.queue_dir.glob(f"{key}.g*.lease"):
                with contextlib.suppress(FileNotFoundError):
                    path.unlink()
            self._rewrite_item(key, "queued", None)
            return True
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(item, sort_keys=True, indent=1) + "\n")
        return True

    def claim(
        self, worker: str, now: float, ttl: float, max_generations: int
    ) -> Optional[Claim]:
        for entry in self.queue_entries():
            # "claimed" is derived from lease files; the lease check
            # below decides whether that lease is live or reclaimable.
            if entry.state not in ("queued", "claimed"):
                continue
            gen, _, expires = self._latest_lease(entry.key, ttl)
            if gen > 0 and expires is not None and expires > now:
                continue  # live lease held elsewhere
            if gen >= max_generations:
                self.mark_failed(
                    entry.key,
                    f"abandoned: lease expired {gen} time(s) "
                    f"(max_generations={max_generations})",
                )
                continue
            if parsed(self.find_entry(entry.key), entry.key) is not None:
                # A racing generation already published the result.
                self.mark_done(entry.key)
                continue
            lease_path = self._lease_path(entry.key, gen + 1)
            try:
                fd = os.open(lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue  # lost the race for this generation
            lease = {"worker": worker, "expires": now + ttl,
                     "generation": gen + 1}
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(lease, sort_keys=True) + "\n")
            return Claim(
                cell=entry.cell, key=entry.key, worker=worker,
                generation=gen + 1, expires=now + ttl,
            )
        return None

    def _rewrite_item(self, key: str, state: str, error: Optional[str]) -> None:
        item = self._read_json(self._item_path(key))
        if item is None:
            return
        item["state"] = state
        item["error"] = error
        atomic_write_text(
            self._item_path(key), json.dumps(item, sort_keys=True, indent=1) + "\n"
        )

    def mark_done(self, key: str) -> None:
        self._rewrite_item(key, "done", None)

    def mark_failed(self, key: str, error: str) -> None:
        self._rewrite_item(key, "failed", error)

    def queue_entries(self) -> List[QueueEntry]:
        entries: List[QueueEntry] = []
        if not self.queue_dir.is_dir():
            return entries
        for path in self.queue_dir.glob("*.cell.json"):
            item = self._read_json(path)
            if item is None:
                continue
            try:
                cell = cell_from_json(item["cell"])
            except (KeyError, TypeError):
                continue
            key = str(item.get("key", ""))
            gen, worker, expires = self._latest_lease(key, DEFAULT_LEASE_TTL)
            state = str(item.get("state", "queued"))
            if state == "queued" and gen > 0:
                state = "claimed"
            error = item.get("error")
            entries.append(
                QueueEntry(
                    key=key,
                    seq=int(item.get("seq", 0)),
                    cell=cell,
                    state=state,
                    worker=worker,
                    lease_expires=expires,
                    generation=gen,
                    error=str(error) if error is not None else None,
                )
            )
        entries.sort(key=lambda e: (e.seq, e.key))
        return entries


# ----------------------------------------------------------------------
# SQLite backend
# ----------------------------------------------------------------------
class SqliteBackend(StoreBackend):
    """Single-file SQLite store (WAL journal, immediate-mode claims).

    One backend object is safe to share across the service's request
    threads and a path is safe to share across any number of worker
    processes; WAL keeps readers unblocked while writers commit.

    Writes (results, queue rows, claims) each open a connection and
    close it afterwards.  Reads borrow one from a lock-guarded pool of
    idle connections, so the service's hot path pays no ``connect`` per
    read: a read commits on success and hands its connection back,
    closes it on any exception (no pooled connection ever holds an open
    transaction), and, running outside any transaction, sees every
    commit made before it.  Writers stay unpooled because a pooled
    connection that has written kept the ``store-serve`` benchmark's
    peak RSS up to 4 MB higher across a drain (DESIGN.md section 13).
    ``journal_mode=WAL`` lives in the database file and is set once
    here; ``synchronous=NORMAL`` is set per connection.  :meth:`close`
    closes the idle readers.
    """

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS results (
        key     TEXT PRIMARY KEY,
        app     TEXT NOT NULL,
        dataset TEXT NOT NULL,
        label   TEXT NOT NULL,
        entry   TEXT NOT NULL
    );
    CREATE TABLE IF NOT EXISTS queue (
        key           TEXT PRIMARY KEY,
        seq           INTEGER NOT NULL,
        cell          TEXT NOT NULL,
        state         TEXT NOT NULL DEFAULT 'queued',
        worker        TEXT,
        lease_expires REAL,
        generation    INTEGER NOT NULL DEFAULT 0,
        error         TEXT
    );
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._idle: List[sqlite3.Connection] = []
        self._lock = threading.Lock()
        with self._connect() as con:
            con.execute("PRAGMA journal_mode=WAL")
            con.executescript(self._SCHEMA)

    def _open(self) -> sqlite3.Connection:
        con = sqlite3.connect(
            str(self.path), timeout=30.0, check_same_thread=False
        )
        con.execute("PRAGMA synchronous=NORMAL")
        return con

    @contextlib.contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """A fresh connection for one write, committed and closed."""
        con = self._open()
        try:
            yield con
            con.commit()
        finally:
            con.close()

    @contextlib.contextmanager
    def _read(self) -> Iterator[sqlite3.Connection]:
        """A pooled connection for one read."""
        with self._lock:
            con = self._idle.pop() if self._idle else None
        if con is None:
            con = self._open()
        try:
            yield con
            con.commit()
        except BaseException:
            con.close()
            raise
        with self._lock:
            self._idle.append(con)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for con in idle:
            con.close()

    # -- results ------------------------------------------------------
    def load_entry(
        self, app: str, dataset: str, label: str, key: str
    ) -> Optional[Dict[str, Any]]:
        return self.find_entry(key)

    def save_entry(
        self, app: str, dataset: str, label: str, key: str,
        entry: Dict[str, Any],
    ) -> None:
        with self._connect() as con:
            con.execute(
                "INSERT INTO results (key, app, dataset, label, entry) "
                "VALUES (?, ?, ?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET entry = excluded.entry",
                (key, app, dataset, label,
                 json.dumps(entry, sort_keys=True)),
            )

    def find_entry(self, key: str) -> Optional[Dict[str, Any]]:
        with self._read() as con:
            row = con.execute(
                "SELECT entry FROM results WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else decode_entry(row[0])

    def result_count(self) -> int:
        with self._read() as con:
            row = con.execute("SELECT COUNT(*) FROM results").fetchone()
        return int(row[0])

    # -- queue --------------------------------------------------------
    def enqueue(self, key: str, cell: SweepCell, seq: int) -> bool:
        with self._connect() as con:
            cur = con.execute(
                "INSERT INTO queue (key, seq, cell) VALUES (?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET state = 'queued', "
                "worker = NULL, lease_expires = NULL, generation = 0, "
                "error = NULL WHERE queue.state = 'done'",
                (key, seq, json.dumps(cell_to_json(cell), sort_keys=True)),
            )
        return cur.rowcount > 0

    def claim(
        self, worker: str, now: float, ttl: float, max_generations: int
    ) -> Optional[Claim]:
        while True:
            with self._connect() as con:
                con.execute("BEGIN IMMEDIATE")
                row = con.execute(
                    "SELECT key, cell, state, generation FROM queue "
                    "WHERE state = 'queued' "
                    "   OR (state = 'claimed' AND lease_expires <= ?) "
                    "ORDER BY seq, key LIMIT 1",
                    (now,),
                ).fetchone()
                if row is None:
                    return None
                key, cell_json, _state, generation = row
                if generation >= max_generations:
                    con.execute(
                        "UPDATE queue SET state = 'failed', error = ? "
                        "WHERE key = ?",
                        (
                            f"abandoned: lease expired {generation} time(s) "
                            f"(max_generations={max_generations})",
                            key,
                        ),
                    )
                    continue
                stored = con.execute(
                    "SELECT entry FROM results WHERE key = ?", (key,)
                ).fetchone()
                if (
                    stored is not None
                    and parsed(decode_entry(stored[0]), key) is not None
                ):
                    con.execute(
                        "UPDATE queue SET state = 'done', error = NULL "
                        "WHERE key = ?",
                        (key,),
                    )
                    continue
                con.execute(
                    "UPDATE queue SET state = 'claimed', worker = ?, "
                    "lease_expires = ?, generation = generation + 1 "
                    "WHERE key = ?",
                    (worker, now + ttl, key),
                )
            try:
                cell = cell_from_json(json.loads(cell_json))
            except (KeyError, TypeError, ValueError):
                self.mark_failed(key, "unreadable cell spelling")
                continue
            return Claim(
                cell=cell, key=key, worker=worker,
                generation=generation + 1, expires=now + ttl,
            )

    def mark_done(self, key: str) -> None:
        with self._connect() as con:
            con.execute(
                "UPDATE queue SET state = 'done', error = NULL WHERE key = ?",
                (key,),
            )

    def mark_failed(self, key: str, error: str) -> None:
        with self._connect() as con:
            con.execute(
                "UPDATE queue SET state = 'failed', error = ? WHERE key = ?",
                (error, key),
            )

    _QUEUE_ROW = (
        "SELECT key, seq, cell, state, worker, lease_expires, generation, "
        "error FROM queue "
    )

    @staticmethod
    def _queue_entry(row: Tuple[Any, ...]) -> Optional[QueueEntry]:
        """One queue row as a :class:`QueueEntry`; None when its cell
        spelling is unreadable."""
        key, seq, cell_json, state, worker, expires, gen, error = row
        try:
            cell = cell_from_json(json.loads(cell_json))
        except (KeyError, TypeError, ValueError):
            return None
        return QueueEntry(
            key=key, seq=seq, cell=cell, state=state, worker=worker,
            lease_expires=expires, generation=gen, error=error,
        )

    def queue_entries(self) -> List[QueueEntry]:
        with self._read() as con:
            rows = con.execute(self._QUEUE_ROW + "ORDER BY seq, key").fetchall()
        entries = [self._queue_entry(row) for row in rows]
        return [entry for entry in entries if entry is not None]

    def queue_lookup(self, key: str) -> Optional[QueueEntry]:
        with self._read() as con:
            row = con.execute(
                self._QUEUE_ROW + "WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else self._queue_entry(row)


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------
@dataclass
class SubmitReport:
    """What one ``submit`` call did."""

    requested: int = 0
    deduped: int = 0
    already_done: int = 0
    already_queued: int = 0
    enqueued: int = 0

    def summary(self) -> str:
        return (
            f"{self.requested} cells requested, {self.deduped} unique: "
            f"{self.enqueued} enqueued, {self.already_done} already done, "
            f"{self.already_queued} already queued"
        )


@dataclass
class StoreStatus:
    """Point-in-time view of one store."""

    results: int = 0
    queued: int = 0
    claimed: int = 0
    expired: int = 0
    done: int = 0
    failed: int = 0
    failures: List[Tuple[str, str]] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"{self.results} results; queue: {self.queued} queued, "
            f"{self.claimed} claimed, {self.expired} lease-expired, "
            f"{self.done} done, {self.failed} failed"
        )

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "results": self.results,
            "queue": {
                "queued": self.queued,
                "claimed": self.claimed,
                "expired": self.expired,
                "done": self.done,
                "failed": self.failed,
            },
            "failures": [
                {"cell": cell, "error": error} for cell, error in self.failures
            ],
        }


class ResultStore:
    """Typed facade over one :class:`StoreBackend`.

    ``clock`` exists for tests (lease expiry without sleeping); the
    default is the host wall clock, which is safe because lease timing
    only decides *which worker* computes a cell -- the cell's bytes are
    determined by its identity hash alone, so wall-clock nondeterminism
    can never reach a result.
    """

    def __init__(
        self,
        backend: StoreBackend,
        clock: Callable[[], float] = time.time,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_generations: int = DEFAULT_MAX_GENERATIONS,
    ) -> None:
        self.backend = backend
        self.clock = clock
        self.lease_ttl = lease_ttl
        self.max_generations = max_generations
        self.hits = 0
        self.misses = 0

    # -- results ------------------------------------------------------
    def get_result(self, cell: SweepCell) -> Optional[CaseResult]:
        """The stored result of one cell, or None (corrupt or
        digest-mismatched entries count as misses)."""
        key = cell.key
        result = parsed(
            self.backend.load_entry(cell.app, cell.dataset, cell.label, key),
            key,
        )
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put_result(self, cell: SweepCell, result: CaseResult) -> str:
        """Store one cell's result; returns its key.  Idempotent: the
        entry bytes are a function of the cell identity."""
        config = config_for(cell.label, **cell.kwargs)
        entry = build_entry(cell.app, cell.dataset, cell.label, config, result)
        key = str(entry["key"])
        self.backend.save_entry(cell.app, cell.dataset, cell.label, key, entry)
        return key

    def has_result(self, cell: SweepCell) -> bool:
        entry = self.backend.load_entry(
            cell.app, cell.dataset, cell.label, cell.key
        )
        return parsed(entry, cell.key) is not None

    # -- queue --------------------------------------------------------
    def submit(self, cells: Sequence[SweepCell]) -> SubmitReport:
        """Enqueue every cell that is neither stored nor already queued.

        A ``done`` row whose entry no longer verifies (torn or edited
        after the fact) goes back to ``queued`` and counts as enqueued.
        """
        report = SubmitReport(requested=len(cells))
        unique = dedupe_cells(cells)
        report.deduped = len(unique)
        for seq, cell in enumerate(unique):
            key = cell.key
            if self.has_result(cell):
                report.already_done += 1
                # Keep any stale queue row honest without resetting it.
                if self.backend.queue_lookup(key) is not None:
                    self.backend.mark_done(key)
                continue
            if self.backend.enqueue(key, cell, seq):
                report.enqueued += 1
            else:
                report.already_queued += 1
        return report

    def claim(self, worker: str) -> Optional[Claim]:
        """Claim the next available cell for ``worker``, or None."""
        return self.backend.claim(
            worker, self.clock(), self.lease_ttl, self.max_generations
        )

    def complete(self, claim: Claim, result: CaseResult) -> str:
        """Publish a claimed cell's result and retire its queue row."""
        key = self.put_result(claim.cell, result)
        self.backend.mark_done(claim.key)
        return key

    def fail(self, claim: Claim, error: str) -> None:
        """Record a deterministic failure (no retry: the same inputs
        would fail the same way on every worker)."""
        if parsed(self.backend.find_entry(claim.key), claim.key) is not None:
            self.backend.mark_done(claim.key)
            return
        self.backend.mark_failed(claim.key, error)

    # -- reporting ----------------------------------------------------
    def status(self) -> StoreStatus:
        now = self.clock()
        status = StoreStatus(results=self.backend.result_count())
        for entry in self.backend.queue_entries():
            if entry.state == "queued":
                status.queued += 1
            elif entry.state == "claimed":
                if entry.lease_expires is not None and entry.lease_expires <= now:
                    status.expired += 1
                else:
                    status.claimed += 1
            elif entry.state == "done":
                status.done += 1
            elif entry.state == "failed":
                status.failed += 1
                status.failures.append(
                    (str(entry.cell), entry.error or "unknown error")
                )
        return status

    def close(self) -> None:
        self.backend.close()


def open_store(
    spec: Union[str, pathlib.Path],
    clock: Callable[[], float] = time.time,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_generations: int = DEFAULT_MAX_GENERATIONS,
) -> ResultStore:
    """Open a store from a CLI spec.

    ``sqlite:PATH`` or a path ending in ``.sqlite`` / ``.db`` selects
    :class:`SqliteBackend`; anything else is a
    :class:`LocalDirBackend` directory (today's cache layout).
    """
    text = str(spec)
    backend: StoreBackend
    if text.startswith("sqlite:"):
        backend = SqliteBackend(text[len("sqlite:"):])
    elif text.endswith((".sqlite", ".db")):
        backend = SqliteBackend(text)
    else:
        backend = LocalDirBackend(text)
    return ResultStore(
        backend, clock=clock, lease_ttl=lease_ttl,
        max_generations=max_generations,
    )
