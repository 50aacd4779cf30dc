"""Word-granularity diffs (the multiple-writer protocol's unit of data).

A *twin* is a copy of a consistency unit taken at the first write in an
interval; at the end of the interval the twin is compared word-by-word
with the modified unit to produce a :class:`Diff` -- exactly the
twin-and-diff scheme of Carter et al. used by TreadMarks.

Diffs are stored as (word-index, word-value) numpy arrays.  The modelled
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
    idx = np.flatnonzero(touched).astype(np.int32)
    values = scratch[idx]
    idx.flags.writeable = False
    values.flags.writeable = False
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
        unit=unit, idx=np.arange(n, dtype=np.int32), values=words,
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
