"""The paged shared address space.

The simulated DSM gives every processor a full private copy of one shared
heap (that is what a software DSM *is*: per-node physical copies kept
coherent by the protocol).  The heap is a flat byte range carved into
hardware pages and consistency units; applications allocate from it with
a bump allocator (the analogue of ``Tmk_malloc``).

All bookkeeping is in 4-byte words: diffs, usefulness classification, and
application accesses all operate on word offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dsm.diff import WORD
from repro.sim.memory import sparse_zeros


@dataclass(frozen=True)
class Allocation:
    """One named allocation in the shared heap (byte offsets)."""

    name: str
    offset: int
    nbytes: int

    @property
    def word_offset(self) -> int:
        return self.offset // WORD

    @property
    def nwords(self) -> int:
        return self.nbytes // WORD


class SharedHeapLayout:
    """The allocation map of the shared heap, identical on every node.

    ``malloc`` mirrors ``Tmk_malloc``: applications typically page-align
    major arrays (as the paper's applications do) so that sharing
    granularity relative to the page is controlled by the data layout,
    not by allocator accidents.
    """

    def __init__(self, heap_bytes: int, page_size: int, unit_bytes: int) -> None:
        if heap_bytes <= 0:
            raise ValueError(f"heap_bytes must be positive, got {heap_bytes}")
        if unit_bytes % page_size:
            raise ValueError(
                f"unit ({unit_bytes}) must be a multiple of the page "
                f"({page_size})"
            )
        # Round the heap up to a whole number of consistency units.
        self.page_size = page_size
        self.unit_bytes = unit_bytes
        self.heap_bytes = -(-heap_bytes // unit_bytes) * unit_bytes
        self.nwords = self.heap_bytes // WORD
        self.npages = self.heap_bytes // page_size
        self.nunits = self.heap_bytes // unit_bytes
        self.words_per_unit = unit_bytes // WORD
        self.words_per_page = page_size // WORD
        self._brk = 0
        self._allocations: Dict[str, Allocation] = {}

    def malloc(self, name: str, nbytes: int, page_align: bool = True) -> Allocation:
        """Allocate ``nbytes`` (word-aligned; page-aligned by default)."""
        if name in self._allocations:
            raise ValueError(f"allocation {name!r} already exists")
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        align = self.page_size if page_align else WORD
        offset = -(-self._brk // align) * align
        nbytes = -(-nbytes // WORD) * WORD
        if offset + nbytes > self.heap_bytes:
            raise MemoryError(
                f"shared heap exhausted: need {offset + nbytes} of "
                f"{self.heap_bytes} bytes for {name!r}"
            )
        alloc = Allocation(name=name, offset=offset, nbytes=nbytes)
        self._allocations[name] = alloc
        self._brk = offset + nbytes
        return alloc

    def __getitem__(self, name: str) -> Allocation:
        return self._allocations[name]

    def __contains__(self, name: str) -> bool:
        return name in self._allocations

    def allocations(self) -> List[Allocation]:
        """All allocations, in allocation order."""
        return list(self._allocations.values())

    def allocation_containing(self, byte_offset: int) -> Optional[Allocation]:
        """The allocation whose byte range covers ``byte_offset``, or the
        first allocation starting inside the page of ``byte_offset`` (so
        page-level attribution labels alignment-gap pages by the array
        that begins there); None for untouched heap."""
        page0 = (byte_offset // self.page_size) * self.page_size
        fallback = None
        for alloc in self._allocations.values():
            if alloc.offset <= byte_offset < alloc.offset + alloc.nbytes:
                return alloc
            if fallback is None and page0 <= alloc.offset < page0 + self.page_size:
                fallback = alloc
        return fallback

    # ------------------------------------------------------------------
    # Geometry helpers (word offsets -> pages / units)
    # ------------------------------------------------------------------
    def unit_of_word(self, word: int) -> int:
        """Consistency unit containing word offset ``word``."""
        return word // self.words_per_unit

    def units_of_range(self, word0: int, nwords: int) -> range:
        """Units overlapped by the word range [word0, word0+nwords)."""
        if nwords <= 0:
            raise ValueError(f"empty range at word {word0}")
        first = word0 // self.words_per_unit
        last = (word0 + nwords - 1) // self.words_per_unit
        return range(first, last + 1)

    def pages_of_range(self, word0: int, nwords: int) -> range:
        """Hardware pages overlapped by the word range."""
        if nwords <= 0:
            raise ValueError(f"empty range at word {word0}")
        first = word0 // self.words_per_page
        last = (word0 + nwords - 1) // self.words_per_page
        return range(first, last + 1)

    def unit_word_range(self, unit: int) -> Tuple[int, int]:
        """(first word, one-past-last word) of a consistency unit."""
        w0 = unit * self.words_per_unit
        return w0, w0 + self.words_per_unit


class AddressSpace:
    """One processor's private copy of the shared heap."""

    def __init__(self, layout: SharedHeapLayout) -> None:
        self.layout = layout
        self.words = sparse_zeros(layout.nwords, np.uint32)

    def unit_view(self, unit: int) -> np.ndarray:
        """Writable uint32 view of one consistency unit."""
        w0, w1 = self.layout.unit_word_range(unit)
        return self.words[w0:w1]

    def read_words(self, word0: int, nwords: int) -> np.ndarray:
        """Copy of a word range (raw uint32 bit patterns)."""
        return self.words[word0 : word0 + nwords].copy()

    def write_words(self, word0: int, values: np.ndarray) -> None:
        """Overwrite a word range with uint32 bit patterns."""
        self.words[word0 : word0 + values.shape[0]] = values

    def gather(self, starts: np.ndarray, nwords: int) -> np.ndarray:
        """Copy of ``len(starts)`` equal-length word ranges as one
        (nranges, nwords) array -- one fancy-indexed read instead of a
        Python loop of range copies."""
        idx = starts[:, None] + np.arange(nwords, dtype=np.int64)[None, :]
        return self.words[idx]

    def scatter(self, starts: np.ndarray, values: np.ndarray) -> None:
        """Overwrite ``len(starts)`` equal-length word ranges from a
        (nranges, nwords) array.  The ranges must be pairwise disjoint:
        NumPy leaves the winner among repeated indices of one advanced
        assignment unspecified (``LrcProc.write_scatter`` sends
        overlapping ranges to its sequential loop instead)."""
        idx = starts[:, None] + np.arange(values.shape[1], dtype=np.int64)[None, :]
        self.words[idx] = values
