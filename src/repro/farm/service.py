"""Read-only results service over one store.

``python -m repro.farm serve`` exposes the cached sweep cells as HTTP
endpoints rendered on demand -- pure stdlib (``http.server``), no write
path, and **no in-request simulation**: an experiment whose cells are
not all stored yet answers ``202`` with the list of pending cells (the
farm workers are the only computers of cells), enforced hard by
:meth:`repro.bench.harness.ResultCache.set_compute`.

Endpoints (all ``GET``/``HEAD``):

``/``                          JSON index of everything below
``/healthz``                   liveness probe
``/v1/status.json``            store + queue counters
``/v1/experiments/<name>.txt``   the paper-shaped text rendering
``/v1/experiments/<name>.json``  every cell's full result, keyed
``/v1/experiments/<name>.csv``   flat per-cell golden counters
``/v1/cells/<key>.json``       one raw store entry by cell key

Experiment names are the bench CLI's (``table1``, ``figure1``,
``figure2``, ``figure3``, ``ablation``, ``protocols``) -- the service
reuses the same cell enumerators and renderers, so its output is
byte-identical to ``python -m repro.bench <name>`` over a warm cache.

Caching: complete experiment responses carry a strong ``ETag`` derived
from the sorted content-addressed cell keys (which hash the code
version, the config, and the identity of every cell), so a revalidation
(``If-None-Match``) answers ``304`` until any underlying cell -- or the
simulator itself -- changes.  Raw cell entries use the key itself.  The
``304`` is decided after every cell's entry has been read and verified
(a missing or corrupt entry still answers ``202``) and before any body
is built, so a revalidation costs the reads and nothing else.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.golden import GOLDEN_FIELDS
from repro.bench.harness import CaseResult, PendingCellError, ResultCache
from repro.bench.pool import SweepCell, dedupe_cells
from repro.farm.store import ResultStore
from repro.sim.config import DEFAULT_PROTOCOL

#: Experiments served: every bench CLI command with a cell enumerator
#: (micro measures sync primitives in-process, so it has no cells to
#: serve from a store).
EXPERIMENTS = ("table1", "figure1", "figure2", "figure3", "ablation",
               "protocols")

#: Pending responses list at most this many missing cells.
MAX_MISSING_LISTED = 50

#: The only keys :func:`repro.bench.cache.cell_key` emits; anything else
#: in a ``/v1/cells/`` URL is answered 404 without touching the store.
_CELL_KEY = re.compile(r"[0-9a-f]{24}")

#: Renderers touch the process-wide ResultCache; one render at a time.
_RENDER_LOCK = threading.Lock()


def experiment_cells(name: str) -> List[SweepCell]:
    """The deduplicated cells one experiment consumes."""
    from repro.bench.cli import _cells_for

    return dedupe_cells(_cells_for([name]))


def _render_text(name: str, cells: Sequence[SweepCell],
                 results: Sequence[CaseResult]) -> str:
    """The bench CLI's text rendering, fed exclusively from ``results``.

    Computation is disabled for the duration: if a renderer consumed a
    cell its enumerator failed to declare, that is a bug
    (:class:`PendingCellError`), not a license to simulate in-request.
    """
    from repro.bench.cli import COMMANDS

    with _RENDER_LOCK:
        previous_disk = ResultCache.disk()
        previous_compute = ResultCache.set_compute(False)
        ResultCache.configure(None)
        try:
            for cell, result in zip(cells, results, strict=True):
                ResultCache.put(
                    cell.app, cell.dataset, cell.label, result, **cell.kwargs
                )
            return COMMANDS[name]()
        finally:
            ResultCache.set_compute(previous_compute)
            ResultCache.configure(previous_disk)


def _cells_etag(cells: Sequence[SweepCell]) -> str:
    """Strong ETag over the sorted content-addressed cell keys."""
    blob = ",".join(sorted(c.key for c in cells))
    return '"' + hashlib.sha256(blob.encode()).hexdigest()[:32] + '"'


def _json_payload(name: str, cells: Sequence[SweepCell],
                  results: Sequence[CaseResult]) -> Dict[str, Any]:
    return {
        "experiment": name,
        "cells": [
            {
                "app": cell.app,
                "dataset": cell.dataset,
                "label": cell.label,
                "extra": dict(cell.extra),
                "key": cell.key,
                "result": result.to_json_dict(),
            }
            for cell, result in zip(cells, results, strict=True)
        ],
    }


def _csv_payload(cells: Sequence[SweepCell],
                 results: Sequence[CaseResult]) -> str:
    buf = io.StringIO()
    fields = ["app", "dataset", "label", "protocol", "key", *GOLDEN_FIELDS]
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for cell, result in zip(cells, results, strict=True):
        row: Dict[str, Any] = {
            "app": cell.app,
            "dataset": cell.dataset,
            "label": cell.label,
            "protocol": cell.kwargs.get("protocol", DEFAULT_PROTOCOL),
            "key": cell.key,
        }
        for f in GOLDEN_FIELDS:
            row[f] = getattr(result, f)
        writer.writerow(row)
    return buf.getvalue()


class _Response:
    """One materialized HTTP response."""

    def __init__(self, status: int, content_type: str, body: str,
                 etag: Optional[str] = None) -> None:
        self.status = status
        self.content_type = content_type
        self.body = body.encode()
        self.etag = etag

    @classmethod
    def json(cls, status: int, payload: Dict[str, Any],
             etag: Optional[str] = None) -> "_Response":
        return cls(status, "application/json",
                   json.dumps(payload, sort_keys=True, indent=1) + "\n", etag)

    @classmethod
    def text(cls, status: int, body: str,
             etag: Optional[str] = None,
             content_type: str = "text/plain; charset=utf-8") -> "_Response":
        return cls(status, content_type, body, etag)

    @classmethod
    def not_modified(cls, etag: str) -> "_Response":
        return cls(304, "", "", etag)


class FarmService:
    """Routing and rendering, separated from the socket plumbing so the
    tests can drive it without binding a port."""

    def __init__(self, store: ResultStore) -> None:
        self.store = store

    # -- routing ------------------------------------------------------
    def handle(self, path: str,
               if_none_match: Optional[str] = None) -> _Response:
        """Route one request; ``if_none_match`` is the request's
        ``If-None-Match`` header (a match answers ``304``)."""
        path = path.split("?", 1)[0]
        if path in ("/", "/v1", "/v1/"):
            return self._index()
        if path == "/healthz":
            return _Response.text(200, "ok\n")
        if path == "/v1/status.json":
            return _Response.json(200, self.store.status().to_json_dict())
        if path.startswith("/v1/experiments/"):
            rest = path[len("/v1/experiments/"):]
            if "." in rest:
                name, fmt = rest.rsplit(".", 1)
                if name in EXPERIMENTS and fmt in ("json", "csv", "txt"):
                    return self._experiment(name, fmt, if_none_match)
        if path.startswith("/v1/cells/") and path.endswith(".json"):
            key = path[len("/v1/cells/"):-len(".json")]
            return self._cell(key, if_none_match)
        return _Response.json(404, {"error": f"no such resource: {path}"})

    def _index(self) -> _Response:
        return _Response.json(200, {
            "service": "repro.farm results service (read-only)",
            "endpoints": {
                "/healthz": "liveness probe",
                "/v1/status.json": "store and queue counters",
                "/v1/experiments/<name>.{json,csv,txt}":
                    f"rendered experiments; names: {', '.join(EXPERIMENTS)}",
                "/v1/cells/<key>.json": "one raw store entry by cell key",
            },
        })

    # -- handlers -----------------------------------------------------
    def _fetch(
        self, cells: Sequence[SweepCell]
    ) -> Tuple[List[CaseResult], List[SweepCell]]:
        results: List[CaseResult] = []
        missing: List[SweepCell] = []
        for cell in cells:
            result = self.store.get_result(cell)
            if result is None:
                missing.append(cell)
            else:
                results.append(result)
        return results, missing

    def _experiment(self, name: str, fmt: str,
                    if_none_match: Optional[str]) -> _Response:
        cells = experiment_cells(name)
        results, missing = self._fetch(cells)
        if missing:
            return _Response.json(202, {
                "status": "pending",
                "experiment": name,
                "need": len(cells),
                "have": len(cells) - len(missing),
                "missing": [
                    {"cell": str(c), "key": c.key}
                    for c in missing[:MAX_MISSING_LISTED]
                ],
                "hint": "cells are computed by farm workers, never "
                        "in-request; submit the sweep and run workers",
            })
        etag = _cells_etag(cells)
        if if_none_match == etag:
            return _Response.not_modified(etag)
        if fmt == "json":
            return _Response.json(200, _json_payload(name, cells, results),
                                  etag=etag)
        if fmt == "csv":
            return _Response.text(200, _csv_payload(cells, results),
                                  etag=etag, content_type="text/csv")
        try:
            text = _render_text(name, cells, results)
        except PendingCellError as exc:  # enumerator drift; see docstring
            return _Response.json(500, {"error": str(exc)})
        return _Response.text(200, text + "\n", etag=etag)

    def _cell(self, key: str, if_none_match: Optional[str]) -> _Response:
        if not _CELL_KEY.fullmatch(key):
            return _Response.json(404, {"error": f"unknown cell key {key!r}"})
        entry = self.store.backend.find_entry(key)
        if entry is None:
            queued = self.store.backend.queue_lookup(key)
            if queued is not None:
                return _Response.json(202, {
                    "status": "pending",
                    "key": key,
                    "state": queued.state,
                    "cell": str(queued.cell),
                })
            return _Response.json(404, {"error": f"unknown cell key {key!r}"})
        etag = f'"{key}"'
        if if_none_match == etag:
            return _Response.not_modified(etag)
        return _Response.json(200, entry, etag=etag)


class _Handler(BaseHTTPRequestHandler):
    """Socket-level adapter; the routing lives in :class:`FarmService`."""

    service: FarmService  # installed by make_server
    server_version = "repro-farm/1"
    quiet = True

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._respond(head=False)

    def do_HEAD(self) -> None:  # noqa: N802 (http.server API)
        self._respond(head=True)

    def _respond(self, head: bool) -> None:
        response = self.service.handle(
            self.path, self.headers.get("If-None-Match")
        )
        if response.status == 304:
            self.send_response(304)
            self.send_header("ETag", str(response.etag))
            self.end_headers()
            return
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        if response.etag is not None:
            self.send_header("ETag", response.etag)
            self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        if not head:
            self.wfile.write(response.body)

    def log_message(self, format: str, *args: Any) -> None:
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)


def make_server(
    store: ResultStore, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to ``host:port`` (port 0 picks
    a free one; read it back from ``server.server_address``)."""
    service = FarmService(store)

    class BoundHandler(_Handler):
        pass

    BoundHandler.service = service
    return ThreadingHTTPServer((host, port), BoundHandler)


def serve_forever(
    store: ResultStore, host: str, port: int,
    announce: Optional[Any] = None,
) -> None:  # pragma: no cover - exercised by the CLI smoke, not pytest
    server = make_server(store, host, port)
    bound_host, bound_port = server.server_address[:2]
    if announce is not None:
        announce(f"serving on http://{bound_host}:{bound_port}/ (read-only)")
    try:
        server.serve_forever()
    finally:
        server.server_close()
