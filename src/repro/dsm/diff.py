"""Word-granularity diffs (the multiple-writer protocol's unit of data).

A *twin* is a copy of a consistency unit taken at the first write in an
interval; at the end of the interval the twin is compared word-by-word
with the modified unit to produce a :class:`Diff` -- exactly the
twin-and-diff scheme of Carter et al. used by TreadMarks.

A :class:`Diff` is a pair of (word-index, word-value) numpy arrays; an
interval close records all its diffs packed (:class:`PackedDiffs`) and
builds a :class:`Diff` only when one is requested.  The modelled
wire size is run-length encoded, as in TreadMarks: each maximal run of
consecutive modified words costs one (offset, length) header plus its
data words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Bytes per run header in the run-length wire encoding (offset + length).
RUN_HEADER_BYTES = 8

#: Fixed per-diff framing bytes (unit id, interval id, run count).
DIFF_HEADER_BYTES = 16

WORD = 4  # bytes per instrumentation word

#: ``wire_bytes - nwords * WORD`` of a diff whose offsets form a single
#: run.  The wire size already encodes the run count, so contiguity is
#: one integer compare -- nothing extra is stored or computed per diff.
ONE_RUN_BYTES = DIFF_HEADER_BYTES + RUN_HEADER_BYTES


@dataclass(frozen=True, slots=True)
class Diff:
    """A record of the words an interval modified within one unit.

    ``idx`` holds word offsets (int32) *within the unit*, strictly
    increasing; ``values`` holds the post-write word values (uint32 raw
    bit patterns).
    """

    unit: int
    idx: np.ndarray
    values: np.ndarray
    wire_bytes: int
    nwords: int
    """Number of modified words carried (== ``idx.shape[0]``, stored:
    the fetch path reads it many times per diff)."""

    @property
    def data_bytes(self) -> int:
        """Payload bytes excluding run/framing headers."""
        return self.nwords * WORD


def _wire_bytes(idx: np.ndarray) -> int:
    """Run-length encoded wire size of a diff with the given offsets."""
    n = idx.shape[0]
    if n == 0:
        return DIFF_HEADER_BYTES
    runs = 1 + int(np.count_nonzero(np.diff(idx) != 1))
    return DIFF_HEADER_BYTES + runs * RUN_HEADER_BYTES + n * WORD


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


#: Process-wide, but every entry equals its index, so replacing it with
#: a longer one changes no result any caller sees.
_OFFSETS = _readonly(np.arange(4096, dtype=np.int32))


def run_offsets(first: int, n: int) -> np.ndarray:
    """The read-only int32 offsets ``first .. first + n - 1``: a slice
    of one shared ``arange`` (grown on demand), so a single-run diff
    decodes nothing."""
    global _OFFSETS
    if first + n > _OFFSETS.shape[0]:
        _OFFSETS = _readonly(np.arange(2 * (first + n), dtype=np.int32))
    return _OFFSETS[first : first + n]


@dataclass(frozen=True, eq=False)
class PackedDiffs:
    """Every diff of one interval close, packed column-wise: no
    :class:`Diff` exists until :meth:`diff_for` is asked for one (a
    fetch, flush or push), as in TreadMarks, where a release only
    queues write notices.  Built by :func:`pack_diffs`; every array is
    read-only."""

    units: np.ndarray
    """The written units, int64, strictly ascending; row ``i`` is
    ``units[i]``."""
    bounds: np.ndarray
    """int64, ``len(units) + 1``: row ``i``'s values are
    ``values[bounds[i]:bounds[i + 1]]``."""
    values: np.ndarray
    """uint32, every row's changed words in ascending offset order."""
    runs: np.ndarray
    """Maximal runs of changed offsets per row (0 for an empty row)."""
    first: np.ndarray
    """First changed offset per row (0 for an empty row)."""
    masks: np.ndarray
    """``np.packbits`` of each row's change mask, uint8 (rows, bytes)."""
    unit_words: int

    def diff_for(self, unit: int) -> Diff:
        """A fresh :class:`Diff` of ``unit`` (KeyError if not written).
        A row of at most one run takes its offsets from
        :func:`run_offsets`; any other row unpacks its mask."""
        i = int(np.searchsorted(self.units, unit))
        if i == self.units.shape[0] or int(self.units[i]) != unit:
            raise KeyError(unit)
        lo = int(self.bounds[i])
        n = int(self.bounds[i + 1]) - lo
        runs = int(self.runs[i])
        if runs <= 1:
            idx = run_offsets(int(self.first[i]), n)
        else:
            bits = np.unpackbits(self.masks[i], count=self.unit_words)
            idx = _readonly(np.flatnonzero(bits).astype(np.int32))
        return Diff(
            unit=unit, idx=idx, values=self.values[lo : lo + n],
            wire_bytes=DIFF_HEADER_BYTES + runs * RUN_HEADER_BYTES + n * WORD,
            nwords=n,
        )


def pack_diffs(
    units: np.ndarray, twins: np.ndarray, current: np.ndarray
) -> PackedDiffs:
    """Word-compare stacked twins with the stacked current contents of
    ``units`` (ascending; row ``i`` of both matrices is ``units[i]``)
    in a fixed number of whole-matrix numpy calls.

    Identity with a per-row :func:`create_diff`: boolean-mask
    compaction is row-major, so ``current[ne]`` holds each row's
    changed words in ascending offset order, cut at the per-row
    ``count_nonzero`` cumsum; a changed offset starts a run exactly when
    it is offset 0 or its left neighbour is unchanged, so the
    break-mask count is ``_wire_bytes``'s ``1 + count(diff(idx) != 1)``
    (and 0 for an empty row); the packed mask is the offset list."""
    ne = twins != current
    # Free the twin gather (when the caller passed a temporary) before
    # allocating the long-lived values: they then reuse its memory
    # instead of sitting above this call's other temporaries, which
    # would leave a hole in the heap at every close (peak RSS).
    del twins
    bounds = np.zeros(ne.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(ne, axis=1), out=bounds[1:])
    # A run starts at a changed offset 0 or after an unchanged word.
    runs = np.count_nonzero(ne[:, 1:] > ne[:, :-1], axis=1) + ne[:, 0]
    return PackedDiffs(
        units=_readonly(units.astype(np.int64)),
        bounds=_readonly(bounds),
        values=_readonly(current[ne]),
        runs=_readonly(runs),
        first=_readonly(ne.argmax(axis=1)),
        masks=_readonly(np.packbits(ne, axis=1)),
        unit_words=int(ne.shape[1]),
    )


def create_diff(unit: int, twin: np.ndarray, current: np.ndarray) -> Diff:
    """Compare a twin against the current unit contents.

    Both arrays must be uint32 views of the same length (one consistency
    unit).  Returns a possibly-empty :class:`Diff`.
    """
    if twin.shape != current.shape:
        raise ValueError(f"twin/current shape mismatch: {twin.shape} vs {current.shape}")
    changed = np.nonzero(twin != current)[0]
    idx = changed.astype(np.int32)
    values = current[changed].copy()
    return Diff(
        unit=unit, idx=idx, values=values, wire_bytes=_wire_bytes(idx),
        nwords=int(idx.shape[0]),
    )


def merge_diffs(diffs: "list[Diff]", unit_words: int) -> Diff:
    """Coalesce several diffs of the *same unit from the same writer*
    (in interval order) into one diff carrying the latest value of each
    word; ``unit_words`` is the unit's size in words.

    This reproduces TreadMarks' lazy diffing: the real system keeps one
    twin per page across intervals and computes a single diff covering
    all of a writer's modifications when first requested, so a reader
    never pays for the same writer's intermediate versions of a word
    ("diff accumulation" is avoided for single-writer pages).  Our
    simulator closes intervals eagerly, so we coalesce at fetch time
    instead -- the wire contents and sizes are identical.

    Each diff is scattered, in order, into a unit-sized scratch: a later
    diff overwrites an earlier one's word, so the scratch ends holding
    the last value of every touched word, and the touched mask read back
    with ``flatnonzero`` is the ascending offset list -- no sort.  The
    merged arrays are read-only: a merged diff is cached and shared
    between requesters (``IntervalStore.diff_scan_cache``).
    """
    if not diffs:
        raise ValueError("merge_diffs needs at least one diff")
    unit = diffs[0].unit
    for d in diffs[1:]:
        if d.unit != unit:
            raise ValueError(f"cannot merge diffs of units {unit} and {d.unit}")
    if len(diffs) == 1:
        return diffs[0]
    scratch = np.empty(unit_words, dtype=np.uint32)
    touched = np.zeros(unit_words, dtype=bool)
    for d in diffs:
        scratch[d.idx] = d.values
        touched[d.idx] = True
    idx = _readonly(np.flatnonzero(touched).astype(np.int32))
    values = _readonly(scratch[idx])
    return Diff(
        unit=unit, idx=idx, values=values, wire_bytes=_wire_bytes(idx),
        nwords=int(idx.shape[0]),
    )


def whole_unit_diff(unit: int, words: np.ndarray) -> Diff:
    """The diff that replaces every word of ``unit`` with ``words`` (not
    copied): the shape of a whole-unit transfer, so the protocols that
    ship full units install them through the same kernel as
    word-granularity diffs."""
    n = int(words.shape[0])
    return Diff(
        unit=unit, idx=run_offsets(0, n), values=words,
        wire_bytes=ONE_RUN_BYTES + n * WORD, nwords=n,
    )


def encode_payload(diff: Diff) -> bytes:
    """Serialize a diff in the RLE wire format the cost model charges
    for: per maximal run of consecutive word offsets, an
    ``(offset, length)`` pair of little-endian 32-bit words followed by
    the run's data words.  Fully vectorized; the result is always
    exactly ``diff.wire_bytes - DIFF_HEADER_BYTES`` bytes (the framing
    header carries no per-run data), which ties the analytic
    :func:`_wire_bytes` formula to real bytes.  The property suite in
    ``tests/properties/test_diff_rle.py`` pins this encoding
    byte-for-byte against a scalar reference encoder and round-trips it
    through :func:`decode_payload` on arbitrary write masks."""
    idx = diff.idx.astype(np.int64)
    n = idx.shape[0]
    if n == 0:
        return b""
    breaks = np.flatnonzero(np.diff(idx) != 1) + 1
    starts_pos = np.concatenate((np.zeros(1, dtype=np.int64), breaks))
    lengths = np.diff(np.concatenate((starts_pos, np.asarray([n]))))
    runs = starts_pos.shape[0]
    out = np.empty(2 * runs + n, dtype="<u4")
    head_pos = starts_pos + 2 * np.arange(runs)
    out[head_pos] = idx[starts_pos].astype("<u4")
    out[head_pos + 1] = lengths.astype("<u4")
    word_run = np.repeat(np.arange(runs), lengths)
    out[np.arange(n) + 2 * (word_run + 1)] = diff.values.astype("<u4")
    return out.tobytes()


def decode_payload(unit: int, payload: bytes) -> Diff:
    """Rebuild a :class:`Diff` from :func:`encode_payload` output."""
    arr = np.frombuffer(payload, dtype="<u4")
    idx_parts = []
    val_parts = []
    pos = 0
    while pos < arr.shape[0]:
        if pos + 2 > arr.shape[0]:
            raise ValueError("truncated run header in diff payload")
        off, length = int(arr[pos]), int(arr[pos + 1])
        pos += 2
        if length <= 0 or pos + length > arr.shape[0]:
            raise ValueError(f"invalid run (offset {off}, length {length})")
        idx_parts.append(np.arange(off, off + length, dtype=np.int32))
        val_parts.append(arr[pos : pos + length].astype(np.uint32))
        pos += length
    if not idx_parts:
        idx = np.empty(0, dtype=np.int32)
        values = np.empty(0, dtype=np.uint32)
    else:
        idx = np.concatenate(idx_parts)
        values = np.concatenate(val_parts)
    if idx.shape[0] > 1 and not (np.diff(idx) >= 1).all():
        raise ValueError("diff payload runs are not strictly increasing")
    return Diff(
        unit=unit, idx=idx, values=values, wire_bytes=_wire_bytes(idx),
        nwords=int(idx.shape[0]),
    )


def apply_diff(diff: Diff, unit_words: np.ndarray) -> None:
    """Patch ``diff`` into a uint32 view of the target unit, in place."""
    if diff.nwords == 0:
        return
    if int(diff.idx[-1]) >= unit_words.shape[0]:
        raise IndexError(
            f"diff touches word {int(diff.idx[-1])} beyond unit of "
            f"{unit_words.shape[0]} words"
        )
    unit_words[diff.idx] = diff.values
