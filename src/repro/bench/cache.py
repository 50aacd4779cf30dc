"""On-disk result cache for sweep cells.

A *cell* is one (application, dataset, SimConfig) simulation.  Cells are
deterministic, so their distilled :class:`~repro.bench.harness.CaseResult`
can be memoized on disk and reused across processes and invocations --
this is what makes repeated figure/table regeneration and the golden
regression gate cheap.

Keying
------
A cell's cache key hashes four things:

* the **code version** -- a digest over every ``repro`` source file, so
  any change to the simulator, protocol, or applications invalidates the
  entire cache (a stale hit can never mask a behavior change);
* the **application name** and **dataset label**;
* the **canonical config JSON** (:meth:`SimConfig.canonical_json`), so
  two calls that resolve to the same configuration share one entry and
  two configs differing in any field -- including ``**extra`` overrides
  like ``max_group_pages`` -- can never alias.

Entries are one JSON file per cell under ``repro_results/cache/`` with a
human-readable ``<app>-<dataset>-<label>-<key>.json`` name (components
sanitized to a filesystem-safe alphabet; the trailing content-addressed
key is what disambiguates, so prefix collisions are harmless).  Corrupt,
truncated, or stale-schema files are treated as misses and overwritten.

The entry construction / validation / naming helpers below are shared
with the distributed result store (:mod:`repro.farm.store`), whose
``LocalDirBackend`` is byte-compatible with this layout -- a cache
directory written by either is warm for both.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import re
import tempfile
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.sim.config import SimConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (harness imports us)
    from repro.bench.harness import CaseResult

#: Bump when the cache entry layout changes; old entries become misses.
CACHE_SCHEMA = 1

#: Default cache root, relative to the working directory (the CLI and
#: tests pass explicit paths; this matches the repo layout).
DEFAULT_CACHE_DIR = pathlib.Path("repro_results") / "cache"

_SRC_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Memo for :func:`code_version` ("default" -> digest); sources do not
#: change under a live process, so the walk runs once.
_code_version_cache: Dict[str, str] = {}


def code_version(src_root: Optional[pathlib.Path] = None) -> str:
    """Digest of every ``repro`` source file (path + contents).

    Any edit anywhere in the package changes the digest, invalidating
    all cached cells.  That is intentionally coarse: simulations are
    cheap relative to the cost of trusting a stale number.
    """
    root = pathlib.Path(src_root) if src_root is not None else _SRC_ROOT
    memoize = src_root is None  # sources don't change under a live process
    if memoize and "default" in _code_version_cache:
        return _code_version_cache["default"]
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    digest = h.hexdigest()[:16]
    if memoize:
        _code_version_cache["default"] = digest
    return digest


def cell_key(app: str, dataset: str, config: SimConfig) -> str:
    """Stable cache key of one sweep cell under the current code."""
    blob = "\n".join(
        [str(CACHE_SCHEMA), code_version(), app, dataset, config.canonical_json()]
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def cell_seed(app: str, dataset: str, config: SimConfig) -> int:
    """Deterministic per-cell RNG seed (32-bit).

    Derived only from the cell identity -- *not* the code version -- so
    seeds are stable across commits and identical whether the cell runs
    serially in the parent process or fanned out to a pool worker.
    """
    blob = "\n".join(["seed", app, dataset, config.canonical_json()])
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:4], "big")


# ----------------------------------------------------------------------
# Entry layout helpers (shared with repro.farm.store backends)
# ----------------------------------------------------------------------
_SAFE_COMPONENT = re.compile(r"[^A-Za-z0-9._-]")


def sanitize_component(text: str, limit: int = 48) -> str:
    """Filesystem-safe form of one filename component.

    Anything outside ``[A-Za-z0-9._-]`` becomes ``_`` (path separators,
    spaces, shell metacharacters, NULs), the result is length-capped so
    hostile labels cannot exceed filename limits, and an empty or
    all-dots component (``""``, ``"."``, ``".."``) degrades to ``"_"``
    rather than a path-traversal token.  Every name the paper's apps,
    datasets, and unit labels actually use is already safe, so the
    sanitized filenames -- and hence pre-existing cache directories --
    are unchanged for them.
    """
    safe = _SAFE_COMPONENT.sub("_", text)[:limit]
    if not safe.strip("."):
        return "_"
    return safe


def entry_filename(app: str, dataset: str, label: str, key: str) -> str:
    """The ``<app>-<dataset>-<label>-<key>.json`` cache file name."""
    prefix = "-".join(sanitize_component(c) for c in (app, dataset, label))
    return f"{prefix}-{key}.json"


def entry_digest(entry: Dict[str, Any]) -> str:
    """Integrity digest over an entry's canonical JSON (sans ``digest``).

    Stored inside the entry at write time and re-verified at read time,
    so silent corruption anywhere in the payload -- not just truncation,
    which the JSON parse already catches -- is treated as a miss.
    """
    body = {k: v for k, v in entry.items() if k != "digest"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_entry(
    app: str,
    dataset: str,
    label: str,
    config: SimConfig,
    result: "CaseResult",
) -> Dict[str, Any]:
    """The full self-describing cache entry for one cell, with digest."""
    entry: Dict[str, Any] = {
        "schema": CACHE_SCHEMA,
        "key": cell_key(app, dataset, config),
        "code_version": code_version(),
        "app": app,
        "dataset": dataset,
        "label": label,
        "config": config.to_dict(),
        "result": result.to_json_dict(),
    }
    entry["digest"] = entry_digest(entry)
    return entry


def parse_entry(entry: Dict[str, Any], key: str) -> "CaseResult":
    """Validate an entry dict against ``key`` and decode its result.

    Raises ``ValueError``/``KeyError``/``TypeError`` on a stale schema,
    a key mismatch, or an integrity-digest mismatch; callers treat any
    of those as a cache miss.  Entries written before digests existed
    (no ``digest`` field) still parse -- old caches stay warm.
    """
    from repro.bench.harness import CaseResult

    if entry.get("schema") != CACHE_SCHEMA or entry.get("key") != key:
        raise ValueError("stale cache entry")
    if "digest" in entry and entry["digest"] != entry_digest(entry):
        raise ValueError("integrity digest mismatch")
    result = CaseResult.from_json_dict(entry["result"])
    if not isinstance(result, CaseResult):  # pragma: no cover - defensive
        raise TypeError("entry result is not a CaseResult")
    return result


def dump_entry(entry: Dict[str, Any]) -> str:
    """An entry's on-disk serialization (stable, human-diffable)."""
    return json.dumps(entry, sort_keys=True, indent=1) + "\n"


def atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (unique temp + rename).

    The temp file name is unique per writer (``mkstemp``), so two
    processes racing the same cell each publish a complete file and the
    last rename wins whole -- a killed or concurrent writer can never
    leave a truncated file that another process half-reads between its
    open and parse.  (Cell entries are content-addressed, so racing
    writers produce identical bytes and the winner is immaterial.)
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class DiskCache:
    """One-file-per-cell JSON cache with hit/miss accounting."""

    def __init__(self, root: pathlib.Path = DEFAULT_CACHE_DIR) -> None:
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, app: str, dataset: str, label: str, key: str) -> pathlib.Path:
        return self.root / entry_filename(app, dataset, label, key)

    def load(
        self, app: str, dataset: str, label: str, config: SimConfig,
        key: Optional[str] = None,
    ) -> "Optional[CaseResult]":
        """Return the cached :class:`CaseResult`, or None on a miss.

        ``key`` is the cell's :func:`cell_key` when the caller already
        holds it (it is derived from ``config`` otherwise)."""
        if key is None:
            key = cell_key(app, dataset, config)
        path = self._path(app, dataset, label, key)
        try:
            entry = json.loads(path.read_text())
            result = parse_entry(entry, key)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(
        self, app: str, dataset: str, label: str, config: SimConfig,
        result: "CaseResult",
    ) -> pathlib.Path:
        """Write one cell's result; returns the file path."""
        entry = build_entry(app, dataset, label, config, result)
        path = self._path(app, dataset, label, str(entry["key"]))
        atomic_write_text(path, dump_entry(entry))
        self.stores += 1
        return path

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        n = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()
                n += 1
        return n

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json"))) if self.root.is_dir() else 0
