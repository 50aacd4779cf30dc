"""Host memory for the simulated nodes' heap-sized arrays.

Every simulated processor holds arrays as large as the shared heap (its
private image of the heap, its word-usefulness tags) of which it
touches only the pages its partition and its faults reach.  A real
TreadMarks node faults its copy in one hardware page at a time and
pays only for the pages it touches; :func:`sparse_zeros` gives the
simulator's copies the same property on the host.
"""

from __future__ import annotations

import ctypes
import mmap
from typing import Any, Callable, Optional

import numpy as np
import numpy.typing as npt

_PAGE = mmap.PAGESIZE


def _no_hugepage_advice() -> Optional[Callable[[int, int], Any]]:
    """``advise(addr, length)`` marking a range not to be backed by
    transparent huge pages, or None where the host has no such advice
    (no ``madvise`` in the C library, or no ``MADV_NOHUGEPAGE``)."""
    advice = getattr(mmap, "MADV_NOHUGEPAGE", None)
    if advice is None:
        return None
    madvise = getattr(ctypes.CDLL(None), "madvise", None)
    if madvise is None:
        return None
    madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    madvise.restype = ctypes.c_int
    return lambda addr, length: madvise(addr, length, advice)


_advise = _no_hugepage_advice()


def sparse_zeros(n: int, dtype: npt.DTypeLike) -> np.ndarray:
    """``np.zeros(n, dtype)`` whose untouched pages stay non-resident
    at base-page granularity.

    NumPy advises transparent huge pages (``MADV_HUGEPAGE``) for every
    allocation of 4 MB or more, so under THP's ``madvise`` mode one
    written word makes 2 MB resident.  That suits dense arrays and is
    wrong for sparse ones: a processor that writes an eighth of its
    heap image would hold nearly all of it.  The array is allocated by
    ``np.zeros`` as any other (the allocator behaves the same from run
    to run), then its page-aligned interior is advised off huge pages.
    A private ``mmap`` per array would do the same but bypasses the C
    allocator, whose thresholds then stop growing, so the heap is
    handed back and faulted in again every run (DESIGN.md section 7).
    """
    arr = np.zeros(n, dtype=dtype)
    if _advise is not None:
        start = -(-arr.ctypes.data // _PAGE) * _PAGE
        end = (arr.ctypes.data + arr.nbytes) // _PAGE * _PAGE
        _advise(start, max(end - start, 0))
    return arr
