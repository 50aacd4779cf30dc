"""Vector timestamps for lazy release consistency.

Each processor ``p`` maintains a vector clock whose ``q``-th entry is the
index of the most recent interval of processor ``q`` whose write notices
``p`` has received.  Interval indices start at 1; entry 0 means "no
interval of q is known".
"""

from __future__ import annotations

from typing import Iterator, List


class VectorClock:
    """A small mutable integer vector with the usual partial-order ops.

    Kept as a plain Python list: vectors have ``nprocs`` (<= 8 here)
    entries and are manipulated far less often than memory words, so
    clarity beats numpy here.
    """

    __slots__ = ("entries",)

    def __init__(self, nprocs_or_entries) -> None:
        if isinstance(nprocs_or_entries, int):
            self.entries: List[int] = [0] * nprocs_or_entries
        else:
            self.entries = list(int(e) for e in nprocs_or_entries)
        if any(e < 0 for e in self.entries):
            raise ValueError(f"negative vector-clock entry: {self.entries}")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, pid: int) -> int:
        return self.entries[pid]

    def __setitem__(self, pid: int, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative vector-clock entry: {value}")
        self.entries[pid] = value

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def copy(self) -> "VectorClock":
        """An independent copy."""
        return VectorClock(self.entries)

    # ------------------------------------------------------------------
    # Partial order
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self.entries == other.entries

    def __le__(self, other: "VectorClock") -> bool:
        """Pointwise <= : "happened before or equal"."""
        self._check_peer(other)
        return all(a <= b for a, b in zip(self.entries, other.entries, strict=True))

    def __lt__(self, other: "VectorClock") -> bool:
        """Strictly happened-before: <= and not equal."""
        return self <= other and self.entries != other.entries

    def concurrent_with(self, other: "VectorClock") -> bool:
        """Neither happened-before the other."""
        return not (self <= other) and not (other <= self)

    def __hash__(self) -> int:
        return hash(tuple(self.entries))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def tick(self, pid: int) -> int:
        """Advance ``pid``'s own component (a new interval); returns the
        new interval index."""
        self.entries[pid] += 1
        return self.entries[pid]

    def join(self, other: "VectorClock") -> "VectorClock":
        """Pointwise max, in place (the least upper bound); returns self."""
        self._check_peer(other)
        for i, v in enumerate(other.entries):
            if v > self.entries[i]:
                self.entries[i] = v
        return self

    def joined(self, other: "VectorClock") -> "VectorClock":
        """Pointwise max as a new vector (self unchanged)."""
        return self.copy().join(other)

    # ------------------------------------------------------------------
    def _check_peer(self, other: "VectorClock") -> None:
        if len(other.entries) != len(self.entries):
            raise ValueError(
                f"vector length mismatch: {len(self.entries)} vs "
                f"{len(other.entries)}"
            )

    def __repr__(self) -> str:
        return f"VectorClock({self.entries})"
