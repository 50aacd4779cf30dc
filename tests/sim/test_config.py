"""SimConfig: calibration arithmetic and validation."""

import pytest

from repro.sim.config import PAPER_PLATFORM, SimConfig


class TestDefaults:
    def test_paper_page_size(self):
        assert PAPER_PLATFORM.page_size == 4096

    def test_paper_nprocs(self):
        assert PAPER_PLATFORM.nprocs == 8

    def test_one_byte_round_trip_matches_paper(self):
        # 296 us RTT for a 1-byte UDP message (Section 5.1); header bytes
        # model the fixed stack cost, so compare bare latency.
        assert 2 * PAPER_PLATFORM.msg_latency_us == pytest.approx(296.0)

    def test_barrier_overhead_in_measured_range(self):
        # 861 us for the 8-processor barrier (Section 5.1).
        got = PAPER_PLATFORM.barrier_overhead_us(8)
        assert got == pytest.approx(861.0, rel=0.05)

    def test_lock_acquire_in_measured_range(self):
        # 374 - 574 us (Section 5.1).
        lo = PAPER_PLATFORM.lock_acquire_overhead_us(remote=False)
        hi = PAPER_PLATFORM.lock_acquire_overhead_us(remote=True)
        assert 330.0 <= lo <= hi <= 620.0

    def test_diff_round_trip_in_measured_range(self):
        # 579 - 1746 us to obtain a diff (Section 5.1): one request plus
        # service plus a reply carrying between ~0.5 and ~4 KB.
        c = PAPER_PLATFORM
        small = c.msg_cost_us(16) + c.diff_service_us + c.msg_cost_us(512) \
            + 4096 * c.diff_create_byte_us
        large = c.msg_cost_us(64) + c.diff_service_us + c.msg_cost_us(4096) \
            + 16384 * c.diff_create_byte_us
        assert small >= 450.0
        assert large <= 1800.0

    def test_bandwidth_is_100mbps(self):
        # 0.08 us/byte == 12.5 MB/s == 100 Mbps.
        assert PAPER_PLATFORM.byte_time_us == pytest.approx(0.08)


class TestDerived:
    def test_unit_bytes(self):
        assert SimConfig(unit_pages=4).unit_bytes == 16384

    def test_words_per_page(self):
        assert PAPER_PLATFORM.words_per_page == 1024

    def test_words_per_unit(self):
        assert SimConfig(unit_pages=2).words_per_unit == 2048

    def test_msg_cost_includes_header(self):
        c = PAPER_PLATFORM
        assert c.msg_cost_us(0) == pytest.approx(
            c.msg_latency_us + c.msg_header_bytes * c.byte_time_us
        )

    def test_msg_cost_scales_with_payload(self):
        c = PAPER_PLATFORM
        assert c.msg_cost_us(1000) - c.msg_cost_us(0) == pytest.approx(
            1000 * c.byte_time_us
        )


class TestValidation:
    def test_replace_returns_validated_copy(self):
        c = PAPER_PLATFORM.replace(unit_pages=2)
        assert c.unit_pages == 2
        assert PAPER_PLATFORM.unit_pages == 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("nprocs", 0),
            ("nprocs", -1),
            ("page_size", 0),
            ("page_size", 4095),
            ("unit_pages", 0),
            ("max_group_pages", 0),
            ("word_size", 8),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            PAPER_PLATFORM.replace(**{field: value})

    def test_unimplemented_sync_message_exclusion_rejected(self):
        # No counter reads the switch, so False would silently count
        # lock/barrier messages anyway.
        with pytest.raises(ValueError, match="not implemented"):
            PAPER_PLATFORM.replace(count_sync_messages=False)

    def test_frozen(self):
        with pytest.raises(Exception):
            PAPER_PLATFORM.nprocs = 4  # type: ignore[misc]


class TestSerialization:
    """Stable serialization/hashing backing the result cache and golden
    baselines (repro.bench.cache keys on canonical_json)."""

    def test_to_from_dict_roundtrip(self):
        cfg = SimConfig(nprocs=4, unit_pages=2, parallel_fetch=False)
        assert SimConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_fields(self):
        data = PAPER_PLATFORM.to_dict()
        data["frobnication_level"] = 9
        with pytest.raises(ValueError):
            SimConfig.from_dict(data)

    def test_from_dict_validates(self):
        data = PAPER_PLATFORM.to_dict()
        data["nprocs"] = 0
        with pytest.raises(ValueError):
            SimConfig.from_dict(data)

    def test_canonical_json_is_deterministic_and_complete(self):
        import dataclasses
        import json

        a, b = SimConfig(), SimConfig()
        assert a.canonical_json() == b.canonical_json()
        # Every field participates, so no two distinct configs can alias.
        # Exception: `protocol` and `access_mode` are omitted at their
        # defaults so cache keys, cell seeds, and golden hashes from
        # before each field existed stay byte-identical (see
        # SimConfig.to_dict) -- a non-default value always serializes,
        # so aliasing is still impossible.
        parsed = json.loads(a.canonical_json())
        fields = {f.name for f in dataclasses.fields(SimConfig)}
        assert set(parsed) == fields - {"protocol", "access_mode"}
        non_default = json.loads(
            SimConfig(protocol="hlrc", access_mode="scalar").canonical_json()
        )
        assert set(non_default) == fields

    def test_config_hash_distinguishes_every_field_change(self):
        base = SimConfig()
        assert base.config_hash() == SimConfig().config_hash()
        for change in (
            dict(nprocs=4),
            dict(unit_pages=2),
            dict(dynamic=True),
            dict(max_group_pages=4),
            dict(msg_latency_us=150.0),
            dict(parallel_fetch=False),
            dict(combine_requests=False),
        ):
            assert base.replace(**change).config_hash() != base.config_hash()

    def test_float_fields_roundtrip_exactly(self):
        cfg = SimConfig(byte_time_us=0.1 + 0.2)  # not exactly representable
        import json

        back = SimConfig.from_dict(json.loads(cfg.canonical_json()))
        assert back.byte_time_us == cfg.byte_time_us
        assert back.config_hash() == cfg.config_hash()
