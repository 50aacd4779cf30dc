"""SharedArray: typed addressing over the heap."""

import numpy as np
import pytest

from repro.core import SimConfig, TreadMarks


@pytest.fixture
def tmk():
    return TreadMarks(SimConfig(nprocs=1), heap_bytes=1 << 18)


def run_one(tmk, body):
    return tmk.run(body)


class TestAllocation:
    def test_array_shapes_and_dtypes(self, tmk):
        a = tmk.array("f32", (16, 16), "float32")
        assert a.words_per_elem == 1
        b = tmk.array("c64", (8,), "complex64")
        assert b.words_per_elem == 2
        c = tmk.array("f64", (8,), "float64")
        assert c.words_per_elem == 2

    def test_sub_word_dtype_rejected(self, tmk):
        with pytest.raises(ValueError):
            tmk.array("bad", (4,), "int16")

    def test_page_alignment(self, tmk):
        tmk.array("a", (4,), "float32")
        b = tmk.array("b", (4,), "float32")
        assert b.alloc.offset % 4096 == 0


class TestAccess:
    def test_roundtrip_1d(self, tmk):
        arr = tmk.array("x", (128,), "float32")

        def body(proc):
            vals = np.linspace(0, 1, 16, dtype=np.float32)
            arr.write(proc, 10, vals)
            got = arr.read(proc, 10, 16)
            assert np.array_equal(got, vals)

        run_one(tmk, body)

    def test_roundtrip_2d_rows(self, tmk):
        arr = tmk.array("m", (8, 32), "float32")

        def body(proc):
            row = np.arange(32, dtype=np.float32)
            arr.write_row(proc, 3, row)
            assert np.array_equal(arr.read_row(proc, 3), row)
            block = np.ones((2, 32), np.float32)
            arr.write_rows(proc, 5, block)
            assert np.array_equal(arr.read_rows(proc, 5, 7), block)

        run_one(tmk, body)

    def test_complex_roundtrip(self, tmk):
        arr = tmk.array("z", (16,), "complex64")

        def body(proc):
            vals = (np.arange(4) + 1j * np.arange(4)).astype(np.complex64)
            arr.write(proc, 2, vals)
            assert np.array_equal(arr.read(proc, 2, 4), vals)

        run_one(tmk, body)

    def test_int_roundtrip_preserves_bits(self, tmk):
        arr = tmk.array("i", (16,), "int32")

        def body(proc):
            vals = np.array([-1, 0, 2**31 - 1, -(2**31)], np.int32)
            arr.write(proc, 0, vals)
            assert np.array_equal(arr.read(proc, 0, 4), vals)

        run_one(tmk, body)

    def test_tuple_indexing(self, tmk):
        arr = tmk.array("t", (4, 8), "float32")

        def body(proc):
            arr.write(proc, (2, 3), np.array([5.0], np.float32))
            assert arr.read(proc, (2, 3), 1)[0] == 5.0

        run_one(tmk, body)


class TestErrors:
    def test_read_past_end(self, tmk):
        arr = tmk.array("e", (8,), "float32")

        def body(proc):
            with pytest.raises(IndexError):
                arr.read(proc, 6, 4)

        run_one(tmk, body)

    def test_write_past_end(self, tmk):
        arr = tmk.array("e2", (8,), "float32")

        def body(proc):
            with pytest.raises(IndexError):
                arr.write(proc, 6, np.zeros(4, np.float32))

        run_one(tmk, body)

    def test_row_access_on_1d_rejected(self, tmk):
        arr = tmk.array("r", (8,), "float32")

        def body(proc):
            with pytest.raises(IndexError):
                arr.read_row(proc, 0)

        run_one(tmk, body)

    def test_int_index_on_2d_rejected(self, tmk):
        arr = tmk.array("m2", (4, 4), "float32")

        def body(proc):
            with pytest.raises(IndexError):
                arr.read(proc, 3, 1)

        run_one(tmk, body)

    def test_oversized_array_rejected(self, tmk):
        with pytest.raises(MemoryError):
            tmk.array("huge", (1 << 22,), "float32")
