"""False-sharing signature construction (Figure 3)."""

import numpy as np
import pytest

from repro.core import SimConfig, TreadMarks
from repro.stats.signature import FalseSharingSignature


def run_pattern(body, nprocs=4, **cfg):
    tmk = TreadMarks(SimConfig(nprocs=nprocs, **cfg), heap_bytes=1 << 16)
    arr = tmk.array("a", (8 * 1024,), "uint32")
    res = tmk.run(lambda proc: body(proc, arr))
    return tmk, res


def test_bucket_accumulation():
    sig = FalseSharingSignature()
    b = sig.bucket(2)
    b.useful_exchanges += 3
    b.useless_exchanges += 1
    assert sig.bucket(2).exchanges == 4
    assert sig.total_exchanges == 4
    assert sig.max_writers == 2


def test_normalized_fractions_sum_to_one():
    sig = FalseSharingSignature()
    sig.bucket(1).useful_exchanges = 6
    sig.bucket(3).useless_exchanges = 2
    norm = sig.normalized()
    total = sum(u + ul for u, ul in norm.values())
    assert total == pytest.approx(1.0)
    assert norm[3] == (0.0, pytest.approx(0.25))


def test_mean_writers():
    sig = FalseSharingSignature()
    sig.bucket(1).useful_exchanges = 2
    sig.bucket(7).useful_exchanges = 2
    assert sig.mean_writers() == pytest.approx(4.0)


def test_empty_signature():
    sig = FalseSharingSignature()
    assert sig.normalized() == {}
    assert sig.mean_writers() == 0.0
    assert sig.max_writers == 0


def test_single_writer_faults_land_in_bucket_one():
    def body(proc, arr):
        if proc.id == 0:
            arr.write(proc, 0, np.arange(1024, dtype=np.uint32))
        proc.barrier()
        if proc.id == 1:
            arr.read(proc, 0, 1024)
        proc.barrier()

    _, res = run_pattern(body)
    assert set(res.signature.buckets) == {1}
    assert res.signature.bucket(1).useless_exchanges == 0


def test_three_writer_faults_land_in_bucket_three():
    def body(proc, arr):
        if proc.id > 0:
            arr.write(proc, proc.id * 8, np.full(8, proc.id, np.uint32))
        proc.barrier()
        if proc.id == 0:
            arr.read(proc, 8, 24)
        proc.barrier()

    _, res = run_pattern(body)
    assert 3 in res.signature.buckets
    assert res.signature.bucket(3).useful_exchanges == 3


def test_monitoring_faults_excluded():
    def body(proc, arr):
        arr.read(proc, proc.id * 1024, 4)
        proc.barrier()

    _, res = run_pattern(body, dynamic=True)
    assert res.signature.total_exchanges == 0


def test_signature_shift_under_false_sharing():
    """Cyclic 8-word writers: at a 4 KB unit the reader sees all three
    writers; the signature records the rightmost bucket accordingly."""

    def body(proc, arr):
        if proc.id > 0:
            for base in range(proc.id * 8, 1024, 32):
                arr.write(proc, base, np.full(8, proc.id, np.uint32))
        proc.barrier()
        if proc.id == 0:
            arr.read(proc, 0, 1024)
        proc.barrier()

    _, res = run_pattern(body)
    assert res.signature.max_writers == 3


class TestNormalizedJson:
    """JSON round-trip helpers used by the result cache and baselines."""

    def test_roundtrip_exact(self):
        from repro.stats.signature import normalized_from_json, normalized_to_json

        sig = {1: (0.5, 0.25), 3: (0.125, 0.0625)}
        encoded = normalized_to_json(sig)
        assert all(isinstance(k, str) for k in encoded)
        assert normalized_from_json(encoded) == sig

    def test_survives_json_serialization(self):
        import json

        from repro.stats.signature import normalized_from_json, normalized_to_json

        sig = {2: (1 / 3, 2 / 7)}
        wire = json.dumps(normalized_to_json(sig))
        assert normalized_from_json(json.loads(wire)) == sig
