"""The `python -m repro protocols` front end."""

import pytest

from repro.cli import main
from repro.protocols import protocol_names
from repro.protocols.base import render_list


class TestList:
    def test_lists_every_registered_protocol(self):
        text = render_list()
        for name in protocol_names():
            assert name in text

    def test_marks_the_default(self):
        lines = render_list().splitlines()
        starred = [ln for ln in lines if ln.startswith(" * ")]
        assert len(starred) == 1
        assert "tm-lrc" in starred[0]

    def test_main_list_exits_zero(self, capsys):
        assert main(["protocols", "--list"]) == 0
        assert "tm-lrc" in capsys.readouterr().out


class TestArgs:
    def test_nothing_to_do_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["protocols"])
