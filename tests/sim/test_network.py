"""Network ledger: recording, counting, classification plumbing."""

import pytest

from repro.sim.config import SimConfig
from repro.sim.network import DATA_CLASSES, SYNC_CLASSES, MessageClass, Network


@pytest.fixture
def net():
    return Network(SimConfig(nprocs=4))


def test_record_returns_ledger_entry(net):
    rec = net.record(0, 1, MessageClass.LOCK, 16, 0.0)
    assert rec.msg_id == 0
    assert net.messages[0] is rec


def test_self_message_rejected(net):
    with pytest.raises(ValueError):
        net.record(2, 2, MessageClass.LOCK, 16, 0.0)


def test_negative_payload_rejected(net):
    with pytest.raises(ValueError):
        net.record(0, 1, MessageClass.LOCK, -1, 0.0)


def test_counts_by_class(net):
    net.record(0, 1, MessageClass.LOCK, 16, 0.0)
    net.record(1, 0, MessageClass.BARRIER, 8, 0.0)
    net.record(0, 2, MessageClass.DIFF_REQUEST, 20, 0.0)
    net.record(2, 0, MessageClass.DIFF_REPLY, 100, 0.0)
    assert net.count() == 4
    assert net.count(MessageClass.LOCK) == 1
    assert sum(net.count(k) for k in SYNC_CLASSES) == 2
    assert net.count(MessageClass.DIFF_REQUEST) + sum(
        net.count(k) for k in DATA_CLASSES
    ) == 2


def test_bytes_by_class(net):
    net.record(0, 1, MessageClass.DIFF_REPLY, 100, 0.0)
    net.record(0, 1, MessageClass.DIFF_REPLY, 50, 0.0)
    assert net.bytes(MessageClass.DIFF_REPLY) == 150
    assert net.bytes() == 150


def test_exchange_lifecycle(net):
    ex = net.new_exchange(requester=0, writer=3, fault_id=7)
    req = net.record(0, 3, MessageClass.DIFF_REQUEST, 20, 0.0, ex)
    reply = net.record(3, 0, MessageClass.DIFF_REPLY, 200, 0.0, ex)
    net.close_exchange(ex, req.msg_id, reply.msg_id)
    assert net.exchange_reply(ex) is reply


def test_unclosed_exchange_rejected(net):
    ex = net.new_exchange(0, 1, 0)
    with pytest.raises(ValueError):
        net.exchange_reply(ex)


def test_uselessness_of_data_message(net):
    reply = net.record(1, 0, MessageClass.DIFF_REPLY, 64, 0.0)
    reply.words_carried = 16
    assert reply.is_useless  # nothing read yet
    reply.words_useful = 3
    assert not reply.is_useless
    assert reply.words_useless == 13


def test_sync_messages_never_useless(net):
    msg = net.record(0, 1, MessageClass.LOCK, 16, 0.0)
    assert not msg.is_useless
