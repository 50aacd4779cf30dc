"""Pins that keep existing caches warm across this PR and the next.

The acceptance criterion "existing caches stay warm" decomposes into
byte-level invariants: the config hash, the cell-key recipe, the entry
file names, and the readability of entries written before integrity
digests existed.  Each is pinned here so an accidental format change
fails loudly instead of silently cold-starting every cache.
"""

import hashlib
import json

from repro.bench.cache import (
    CACHE_SCHEMA,
    DiskCache,
    build_entry,
    cell_key,
    code_version,
    dump_entry,
    entry_digest,
    entry_filename,
    sanitize_component,
)
from repro.bench.harness import config_for
from repro.farm.store import LocalDirBackend
from repro.sim.config import SimConfig


class TestSanitize:
    def test_paper_names_pass_through_unchanged(self):
        for name in ("Jacobi", "3D-FFT", "1Kx1K", "64x64x32", "19-city",
                     "4K", "Dyn", "CLP", "1Kx0.5K"):
            assert sanitize_component(name) == name

    def test_hostile_characters_are_replaced(self):
        assert sanitize_component("a/b") == "a_b"
        assert sanitize_component("..\\evil") == ".._evil"
        assert sanitize_component("a b\tc\0d") == "a_b_c_d"
        assert sanitize_component("sh$(rm)") == "sh__rm_"

    def test_traversal_tokens_degrade_to_underscore(self):
        assert sanitize_component("") == "_"
        assert sanitize_component(".") == "_"
        assert sanitize_component("..") == "_"
        assert sanitize_component("...") == "_"

    def test_length_is_capped(self):
        assert len(sanitize_component("x" * 500)) == 48

    def test_entry_filename_pin(self):
        assert (
            entry_filename("Jacobi", "1Kx1K", "4K", "abc")
            == "Jacobi-1Kx1K-4K-abc.json"
        )
        assert (
            entry_filename("a/b", "..", "c d", "k")
            == "a_b-_-c_d-k.json"
        )


class TestKeyStability:
    def test_default_config_hash_pin(self):
        # Must match tests/protocols/test_registry.py -- the repo-wide
        # canary that canonical_json never drifts.
        assert SimConfig().config_hash() == "2359c599160e1bc0"

    def test_cell_key_recipe_pin(self):
        config = config_for("4K")
        blob = "\n".join([
            str(CACHE_SCHEMA), code_version(), "Jacobi", "1Kx1K",
            config.canonical_json(),
        ])
        expected = hashlib.sha256(blob.encode()).hexdigest()[:24]
        assert cell_key("Jacobi", "1Kx1K", config) == expected

    def test_entry_digest_ignores_itself(self):
        entry = {"a": 1, "b": [2, 3]}
        digest = entry_digest(entry)
        assert entry_digest({**entry, "digest": digest}) == digest
        assert entry_digest({**entry, "a": 2}) != digest


class TestPreDigestEntries:
    """Entries written before this PR carry no ``digest`` field; both
    readers must treat them as hits, not misses."""

    def _write_old_entry(self, root, cell, result):
        config = config_for(cell.label, **cell.kwargs)
        entry = build_entry(cell.app, cell.dataset, cell.label, config,
                            result)
        del entry["digest"]
        path = root / entry_filename(
            cell.app, cell.dataset, cell.label, str(entry["key"])
        )
        root.mkdir(parents=True, exist_ok=True)
        path.write_text(dump_entry(entry))
        return entry

    def test_disk_cache_reads_pre_digest_entry(
        self, tmp_path, jacobi_cells, jacobi_results
    ):
        cell = jacobi_cells["8K"]
        self._write_old_entry(tmp_path, cell, jacobi_results["8K"])
        cache = DiskCache(tmp_path)
        got = cache.load(cell.app, cell.dataset, cell.label,
                         config_for(cell.label, **cell.kwargs))
        assert got == jacobi_results["8K"]
        assert cache.hits == 1 and cache.misses == 0

    def test_local_backend_reads_pre_digest_entry(
        self, tmp_path, jacobi_cells, jacobi_results
    ):
        cell = jacobi_cells["8K"]
        self._write_old_entry(tmp_path, cell, jacobi_results["8K"])
        backend = LocalDirBackend(tmp_path)
        entry = backend.load_entry(cell.app, cell.dataset, cell.label,
                                   cell.key)
        assert entry is not None
        assert "digest" not in entry

    def test_rewritten_entry_gains_digest_same_bytes_otherwise(
        self, tmp_path, jacobi_cells, jacobi_results
    ):
        """The new writer's output differs from the old format only by
        the added ``digest`` field -- same name, same serialization."""
        cell = jacobi_cells["8K"]
        old = self._write_old_entry(tmp_path / "old", cell,
                                    jacobi_results["8K"])
        cache = DiskCache(tmp_path / "new")
        path = cache.store(cell.app, cell.dataset, cell.label,
                           config_for(cell.label, **cell.kwargs),
                           jacobi_results["8K"])
        assert path.name == entry_filename(
            cell.app, cell.dataset, cell.label, cell.key
        )
        new = json.loads(path.read_text())
        assert new.pop("digest") == entry_digest(old)
        assert new == old
        assert path.read_text() == dump_entry(
            {**old, "digest": entry_digest(old)}
        )


class TestEntryBytesPin:
    """Key and entry bytes of one fixed cell, with the code version held
    constant so the pin survives source edits: any change to how a
    config or a result is serialized shows up here as a digest change."""

    CASE = dict(
        app="Jacobi", dataset="1Kx1K", label="Dyn", time_us=30693.023999999998,
        useful_messages=112, useless_messages=3, sync_messages=140,
        useful_bytes=231504, useless_bytes=4096,
        piggybacked_useless_bytes=1024, sync_bytes=42560,
        signature={1: (0.75, 0.125), 2: (0.0, 0.125)},
        checksum=3905859.007021578, faults=56, monitoring_faults=2,
    )

    def test_key_and_entry_bytes_pin(self, monkeypatch):
        import repro.bench.cache as cache
        from repro.bench.harness import CaseResult

        monkeypatch.setattr(cache, "code_version", lambda: "0123456789abcdef")
        config = config_for("Dyn", max_group_pages=4)
        key = cell_key("Jacobi", "1Kx1K", config)
        assert key == "789507d2da36650f1f45b9fa"
        entry = build_entry("Jacobi", "1Kx1K", "Dyn", config,
                            CaseResult(**self.CASE))
        assert entry["key"] == key
        digest = hashlib.sha256(dump_entry(entry).encode()).hexdigest()
        assert digest[:24] == "3a92a86bb623e8a78ee8f787"
