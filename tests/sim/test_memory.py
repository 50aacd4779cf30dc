"""Heap-sized per-processor arrays: zeroed, and never huge-page backed."""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest

from repro.apps.base import run_app
from repro.bench.harness import config_for
from repro.dsm.address_space import AddressSpace, SharedHeapLayout
from repro.sim.memory import sparse_zeros
from repro.stats.words import WordTracker
from tests.conftest import tiny_app

SMAPS = pathlib.Path("/proc/self/smaps")
THP = pathlib.Path("/sys/kernel/mm/transparent_hugepage/enabled")
HUGE = 2 * 2**20
PAGE = 4096


@pytest.mark.parametrize("dtype", [np.uint32, np.int32])
@pytest.mark.parametrize("n", [1, 1025, 2**21 + 3])
def test_sparse_zeros_is_a_plain_zeroed_array(n, dtype):
    """1 element, a length that is no page multiple, and > 8 MB."""
    a = sparse_zeros(n, dtype)
    assert a.shape == (n,) and a.dtype == dtype
    assert a.flags.c_contiguous and a.flags.writeable and a.flags.owndata
    assert not a.any()
    a[0] = a[-1] = 7
    assert int(a[0]) == int(a[-1]) == 7


def smaps():
    """``(start, end, {field: first token})`` per mapping of this process."""
    out = []
    head = re.compile(r"^([0-9a-f]+)-([0-9a-f]+) ")
    for line in SMAPS.read_text().splitlines():
        m = head.match(line)
        if m:
            out.append((int(m.group(1), 16), int(m.group(2), 16), {}))
        else:
            name, _, value = line.partition(":")
            out[-1][2][name] = value.split()[0] if value.split() else ""
    return out


@pytest.mark.skipif(
    not SMAPS.exists() or not THP.exists() or "[never]" in THP.read_text(),
    reason="needs /proc/self/smaps and transparent huge pages",
)
def test_images_and_tags_are_not_huge_page_backed():
    """A 16 MB heap's image and word tags, one word written per 2 MB:
    every mapping inside their page-aligned interiors is either not
    eligible for transparent huge pages or holds none (NumPy itself
    advises huge pages for arrays of 4 MB or more)."""
    lay = SharedHeapLayout(16 * 2**20, PAGE, PAGE)
    image = AddressSpace(lay).words
    tags = WordTracker(lay.nwords, lambda msg, n: None, lay.words_per_unit)._owner
    for arr in (image, tags):
        arr[:: HUGE // arr.itemsize] = 1
        lo = -(-arr.ctypes.data // PAGE) * PAGE
        hi = (arr.ctypes.data + arr.nbytes) // PAGE * PAGE
        inside = [f for start, end, f in smaps() if start < hi and lo < end]
        assert inside
        for fields in inside:
            assert fields.get("THPeligible") == "0" or \
                fields["AnonHugePages"] == "0", fields


@pytest.mark.skipif(not SMAPS.exists(), reason="needs /proc/self/maps")
def test_mapping_count_stays_bounded_over_runs():
    """Advising interiors splits mappings; thirty small runs whose
    arrays the allocator reuses must not keep adding more."""
    maps = pathlib.Path("/proc/self/maps")
    cells = [tiny_app(name) for name in ("Jacobi", "Shallow", "3D-FFT")]

    def runs(n):
        counts = []
        for k in range(n):
            app, dataset = cells[k % len(cells)]
            run_app(app, dataset, config_for("4K"))
            counts.append(len(maps.read_text().splitlines()))
        return counts

    warm = max(runs(6))
    assert max(runs(30)) <= warm + 16
