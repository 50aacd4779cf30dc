"""On-disk result cache: keying, invalidation, round-trip fidelity."""

import json

import pytest

from repro.bench.cache import (
    CACHE_SCHEMA,
    DiskCache,
    cell_key,
    cell_seed,
    code_version,
)
from repro.bench.harness import CaseResult, ResultCache, config_for, run_case
from repro.sim.config import SimConfig


@pytest.fixture
def case():
    return run_case("Jacobi", "1Kx1K", "4K")


class TestKeys:
    def test_key_is_stable(self):
        cfg = SimConfig()
        assert cell_key("Jacobi", "1Kx1K", cfg) == cell_key("Jacobi", "1Kx1K", cfg)

    def test_key_varies_with_identity(self):
        cfg = SimConfig()
        base = cell_key("Jacobi", "1Kx1K", cfg)
        assert cell_key("MGS", "1Kx1K", cfg) != base
        assert cell_key("Jacobi", "2Kx2K", cfg) != base
        assert cell_key("Jacobi", "1Kx1K", cfg.replace(unit_pages=2)) != base

    def test_equivalent_config_spellings_share_a_key(self):
        # The key hashes the resolved config, not the spelling.
        assert cell_key("Jacobi", "1Kx1K", config_for("4K")) == cell_key(
            "Jacobi", "1Kx1K", config_for("4K", unit_pages=1)
        )

    def test_code_version_tracks_source_content(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        v1 = code_version(tmp_path)
        assert v1 == code_version(tmp_path)
        (tmp_path / "a.py").write_text("x = 2\n")
        assert code_version(tmp_path) != v1
        (tmp_path / "b.py").write_text("")
        v3 = code_version(tmp_path)
        assert v3 != v1

    def test_seed_independent_of_code_version(self):
        # Seeds key results across commits; they must not churn with code.
        cfg = SimConfig()
        s = cell_seed("Jacobi", "1Kx1K", cfg)
        assert 0 <= s < 2**32
        assert s == cell_seed("Jacobi", "1Kx1K", cfg)
        assert s != cell_seed("Jacobi", "1Kx1K", cfg.replace(unit_pages=2))


class TestDiskCache:
    def test_roundtrip_is_lossless(self, tmp_path, case):
        disk = DiskCache(tmp_path)
        cfg = config_for("4K")
        disk.store("Jacobi", "1Kx1K", "4K", cfg, case)
        loaded = disk.load("Jacobi", "1Kx1K", "4K", cfg)
        assert loaded == case  # field-for-field, floats exact
        assert disk.hits == 1 and disk.stores == 1

    def test_miss_on_absent_entry(self, tmp_path):
        disk = DiskCache(tmp_path)
        assert disk.load("Jacobi", "1Kx1K", "4K", config_for("4K")) is None
        assert disk.misses == 1

    def test_miss_on_corrupt_entry(self, tmp_path, case):
        disk = DiskCache(tmp_path)
        cfg = config_for("4K")
        path = disk.store("Jacobi", "1Kx1K", "4K", cfg, case)
        path.write_text("{ not json")
        assert disk.load("Jacobi", "1Kx1K", "4K", cfg) is None

    def test_miss_on_schema_bump(self, tmp_path, case):
        disk = DiskCache(tmp_path)
        cfg = config_for("4K")
        path = disk.store("Jacobi", "1Kx1K", "4K", cfg, case)
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA + 1
        path.write_text(json.dumps(entry))
        assert disk.load("Jacobi", "1Kx1K", "4K", cfg) is None

    def test_entry_names_are_readable(self, tmp_path, case):
        disk = DiskCache(tmp_path)
        path = disk.store("Jacobi", "1Kx1K", "4K", config_for("4K"), case)
        assert path.name.startswith("Jacobi-1Kx1K-4K-")

    def test_clear(self, tmp_path, case):
        disk = DiskCache(tmp_path)
        disk.store("Jacobi", "1Kx1K", "4K", config_for("4K"), case)
        assert disk.result_count() == 1
        assert disk.clear() == 1
        assert disk.result_count() == 0


class TestResultCacheDiskLayer:
    def test_second_process_equivalent_load(self, tmp_path):
        """A fresh in-memory cache (i.e. a new invocation) is served from
        disk without re-running the simulation."""
        disk = DiskCache(tmp_path)
        old = ResultCache.disk()
        try:
            ResultCache.configure(disk)
            ResultCache.clear()
            first = ResultCache.get("Jacobi", "1Kx1K", "4K")
            assert disk.stores == 1
            ResultCache.clear()  # simulate a new process
            again = ResultCache.get("Jacobi", "1Kx1K", "4K")
            assert disk.hits == 1
            assert again == first
        finally:
            ResultCache.configure(old)
            ResultCache.clear()


class TestCaseResultJson:
    def test_signature_keys_survive_roundtrip(self, case):
        data = json.loads(json.dumps(case.to_json_dict()))
        back = CaseResult.from_json_dict(data)
        assert back == case
        assert all(isinstance(k, int) for k in back.signature)
