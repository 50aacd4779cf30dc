"""Protocol registry and interface contract."""

import pytest

from repro.core import SimConfig, TreadMarks
from repro.dsm.lrc import LrcProc
from repro.protocols import (
    ProtocolInfo,
    all_protocols,
    base,
    get_protocol,
    protocol_names,
    register,
)
from repro.sim.config import DEFAULT_PROTOCOL

ZOO = ("erc", "hlrc", "swi", "tm-lrc")


class TestRegistry:
    def test_all_zoo_protocols_registered(self):
        assert protocol_names() == ZOO

    def test_default_is_registered(self):
        assert DEFAULT_PROTOCOL in protocol_names()

    def test_get_protocol_returns_info(self):
        info = get_protocol("tm-lrc")
        assert info.name == "tm-lrc"
        assert callable(info.build)
        assert info.description

    def test_get_protocol_unknown_lists_registered(self):
        with pytest.raises(ValueError, match="tm-lrc"):
            get_protocol("dash")

    def test_all_protocols_sorted_by_name(self):
        assert [i.name for i in all_protocols()] == sorted(protocol_names())

    def test_duplicate_registration_rejected(self):
        info = ProtocolInfo(name="__test_dup__", description="", proc_cls=LrcProc)
        register(info)
        try:
            with pytest.raises(ValueError, match="registered twice"):
                register(info)
        finally:
            del base._REGISTRY["__test_dup__"]


class TestBuild:
    @pytest.mark.parametrize("name", ZOO)
    def test_build_yields_one_engine_per_pid(self, name):
        tmk = TreadMarks(
            SimConfig(nprocs=3, protocol=name), heap_bytes=1 << 14
        )
        assert [p.pid for p in tmk.procs] == [0, 1, 2]

    @pytest.mark.parametrize("name", ZOO)
    def test_engines_satisfy_the_structural_contract(self, name):
        tmk = TreadMarks(
            SimConfig(nprocs=2, protocol=name), heap_bytes=1 << 14
        )
        info = get_protocol(name)
        for p in tmk.procs:
            assert type(p) is info.proc_cls

    def test_declared_class_builds_with_its_peers_wired(self):
        """A protocol is its class: ``ProtocolInfo(name, description,
        proc_cls)`` alone yields engines of that class, each holding the
        run's processor list as its peers."""

        class Sub(LrcProc):
            pass

        info = ProtocolInfo(name="__test_sub__", description="", proc_cls=Sub)
        register(info)
        try:
            tmk = TreadMarks(
                SimConfig(nprocs=3, protocol="__test_sub__"),
                heap_bytes=1 << 14,
            )
        finally:
            del base._REGISTRY["__test_sub__"]
        assert [type(p) for p in tmk.procs] == [Sub] * 3
        for p in tmk.procs:
            assert p.peers is tmk.procs

    def test_swi_processors_share_one_directory(self):
        tmk = TreadMarks(
            SimConfig(nprocs=3, protocol="swi"), heap_bytes=1 << 14
        )
        directory = tmk.procs[0].directory
        assert directory.excl.shape == (tmk.layout.nunits,)
        for p in tmk.procs:
            assert p.directory is directory
            assert p.peers is tmk.procs

    @pytest.mark.parametrize("name", ZOO)
    def test_engines_share_clocks_with_the_engine(self, name):
        tmk = TreadMarks(
            SimConfig(nprocs=2, protocol=name), heap_bytes=1 << 14
        )
        for pid, lp in enumerate(tmk.procs):
            assert lp.clock is tmk.engine.procs[pid].clock


class TestConfigIntegration:
    def test_unknown_protocol_rejected_at_validation(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            SimConfig(protocol="msi").validate()

    def test_replace_validates_protocol(self):
        with pytest.raises(ValueError):
            SimConfig().replace(protocol="nope")

    @pytest.mark.parametrize("name", ZOO)
    def test_every_registered_protocol_validates(self, name):
        SimConfig(protocol=name).validate()

    def test_default_protocol_omitted_from_canonical_json(self):
        assert '"protocol"' not in SimConfig().canonical_json()
        assert '"protocol":"hlrc"' in SimConfig(protocol="hlrc").canonical_json()

    def test_default_config_hash_pinned(self):
        # The pre-zoo digest of the default configuration.  The protocol
        # field must not shift it: cache entries, cell seeds, and golden
        # baselines are keyed on this value, and spelling the default
        # out must alias the omitted form.
        assert SimConfig().config_hash() == "2359c599160e1bc0"
        assert (
            SimConfig(protocol=DEFAULT_PROTOCOL).config_hash()
            == SimConfig().config_hash()
        )

    def test_config_hash_distinguishes_protocols(self):
        hashes = {SimConfig(protocol=p).config_hash() for p in ZOO}
        assert len(hashes) == len(ZOO)

    @pytest.mark.parametrize("name", ZOO)
    def test_from_dict_round_trips_protocol(self, name):
        cfg = SimConfig(protocol=name)
        back = SimConfig.from_dict(cfg.to_dict())
        assert back.protocol == name
        assert back == cfg
