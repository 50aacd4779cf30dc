"""Release-path object traffic per cell, counted from outside.

    PYTHONPATH=src python tools/traffic.py [--workloads W1,W2]

Runs every cell of the named ``benchmarks/perf`` simulation workloads
once (default: ``interval-kernels`` and ``protocol-fetch``) and prints
one markdown table row per cell:

* ``closes`` / ``twinned units`` / ``changed words``: interval closes
  that recorded diffs, the units they packed, the words that differed;
* ``diff_for single-run`` / ``diff_for decoded``: ``Diff`` objects built
  from packed records -- by fetch, or by hlrc/erc at release -- split
  by whether the offsets were a slice of the shared ``arange`` or an
  unpacked mask;
* ``notices delivered`` / ``WriteNotice built``: write notices appended
  to pending lists, and notice objects constructed.

Every counter wraps a method by name from this script; nothing is
compiled into ``src/``.  Results are deterministic, so one pass is the
measurement.
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import sys
from typing import Any, Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.perf.workloads import SIM_WORKLOADS  # noqa: E402
from repro.bench.harness import run_case  # noqa: E402
from repro.dsm.diff import ONE_RUN_BYTES, WORD, PackedDiffs  # noqa: E402
from repro.dsm.intervals import IntervalStore, WriteNotice  # noqa: E402
from repro.dsm.lrc import LrcProc  # noqa: E402

COLUMNS = ("closes", "twinned units", "changed words", "diff_for single-run",
           "diff_for decoded", "notices delivered", "WriteNotice built")


def install(counts: Counter[str]) -> None:
    """Wrap the counted methods (for the rest of the process)."""
    real_close = IntervalStore.close_interval
    real_diff_for = PackedDiffs.diff_for
    real_add = LrcProc._add_notices
    real_notice = WriteNotice.__init__

    def close_interval(self: IntervalStore, proc: int, vc: Any,
                       diffs: PackedDiffs) -> Any:
        counts["closes"] += 1
        counts["twinned units"] += int(diffs.units.shape[0])
        counts["changed words"] += int(diffs.values.shape[0])
        return real_close(self, proc, vc, diffs)

    def diff_for(self: PackedDiffs, unit: int) -> Any:
        d = real_diff_for(self, unit)
        single = d.wire_bytes <= ONE_RUN_BYTES + d.nwords * WORD
        counts["diff_for single-run" if single else "diff_for decoded"] += 1
        return d

    def add_notices(self: LrcProc, units: Any, notice: Any) -> int:
        counts["notices delivered"] += int(units.shape[0])
        return real_add(self, units, notice)

    def notice_init(self: WriteNotice, *args: Any, **kwargs: Any) -> None:
        counts["WriteNotice built"] += 1
        real_notice(self, *args, **kwargs)

    IntervalStore.close_interval = close_interval  # type: ignore[method-assign]
    PackedDiffs.diff_for = diff_for  # type: ignore[method-assign]
    LrcProc._add_notices = add_notices  # type: ignore[method-assign]
    WriteNotice.__init__ = notice_init  # type: ignore[method-assign]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="interval-kernels,protocol-fetch")
    args = parser.parse_args()
    counts: Counter[str] = collections.Counter()
    install(counts)
    print("| cell | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for workload in args.workloads.split(","):
        for app, dataset, label, extra in SIM_WORKLOADS[workload]:
            counts.clear()
            run_case(app, dataset, label, **extra)
            name = f"{app}/{dataset}@{label}" + "".join(
                f" {v}" for v in extra.values())
            print(f"| {name} | " + " | ".join(
                f"{counts[c]:,}".replace(",", " ") for c in COLUMNS) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
