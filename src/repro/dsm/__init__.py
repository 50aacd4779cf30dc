"""TreadMarks-style software DSM: lazy release consistency with a
multiple-writer (twin/diff) protocol.

Modules
-------

* :mod:`repro.dsm.vc` -- vector timestamps.
* :mod:`repro.dsm.intervals` -- interval records and write notices (the
  LRC consistency bookkeeping).
* :mod:`repro.dsm.diff` -- word-granularity diff creation / application,
  the packed per-interval diff record, and wire-size modelling
  (run-length encoded, as in TreadMarks).
* :mod:`repro.dsm.address_space` -- the paged shared address space with
  one private numpy-backed copy per processor.
* :mod:`repro.dsm.sync` -- lock and barrier semantics, plugged into the
  scheduling engine.
* :mod:`repro.dsm.lrc` -- the per-processor consistency protocol:
  invalidation at acquire, twin on first write, diff at release, fault
  handling with combined parallel diff fetches.
* :mod:`repro.dsm.dynamic` -- the Section-4 dynamic page-group
  aggregation algorithm.
"""

from repro.dsm.vc import VectorClock
from repro.dsm.intervals import Interval, IntervalStore
from repro.dsm.diff import Diff, create_diff, apply_diff
from repro.dsm.address_space import AddressSpace, SharedHeapLayout

__all__ = [
    "VectorClock",
    "Interval",
    "IntervalStore",
    "Diff",
    "create_diff",
    "apply_diff",
    "AddressSpace",
    "SharedHeapLayout",
]
