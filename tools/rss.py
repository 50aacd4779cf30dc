"""Host memory of one simulated cell, measured in a fresh process.

    python tools/rss.py APP DATASET LABEL [key=value ...]

``key=value`` pairs are ``SimConfig`` overrides passed to ``run_case``
(``access_mode=scalar``, ``protocol=hlrc``; values are Python literals,
else strings).  The cell runs in a child process -- the way
``tools/ab.py`` runs the ruler: one process per measurement, one JSON
line back -- which then reports:

* ``ru_maxrss``: the process's peak resident set;
* ``minor faults``: pages the process faulted in (``ru_minflt``);
* ``AnonHugePages``: anonymous memory backed by transparent huge pages
  at the end of the run, summed over every mapping in
  ``/proc/self/smaps``;
* ``images resident``: resident size of the processors' heap images
  and word tags (``AddressSpace.words``, ``WordTracker._owner``) at the
  end of the run, the ``Rss`` of the ``smaps`` mappings that lie inside
  the pages those arrays span (each array is one or more mappings of
  its own: a chunk the C allocator mapped for it, or an interior that
  was advised on or off huge pages), against the arrays' total size.
  An array that shares a mapping with other data is not counted.

Linux only (``/proc/self/smaps``); exits 1 if the cell fails.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import re
import resource
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
MB = 2**20


def parse_extra(pairs: List[str]) -> Dict[str, Any]:
    """``["k=v", ...]`` -> overrides, each value a literal or a string."""
    extra: Dict[str, Any] = {}
    for pair in pairs:
        key, _, text = pair.partition("=")
        try:
            extra[key] = ast.literal_eval(text)
        except (ValueError, SyntaxError):
            extra[key] = text
    return extra


def smaps() -> List[Tuple[int, int, Dict[str, int]]]:
    """``(start, end, {field: kB})`` per mapping of this process."""
    out: List[Tuple[int, int, Dict[str, int]]] = []
    head = re.compile(r"^([0-9a-f]+)-([0-9a-f]+) ")
    for line in pathlib.Path("/proc/self/smaps").read_text().splitlines():
        m = head.match(line)
        if m:
            out.append((int(m.group(1), 16), int(m.group(2), 16), {}))
        elif line.endswith(" kB"):
            name, _, value = line.partition(":")
            out[-1][2][name] = int(value.split()[0])
    return out


def measure(app: str, dataset: str, label: str,
            extra: Dict[str, Any]) -> Dict[str, Any]:
    """Run the cell in this process and measure it (the child's side)."""
    sys.path[0:0] = [str(ROOT / "src")]
    from repro.bench.harness import run_case
    from repro.dsm.address_space import AddressSpace
    from repro.stats.words import WordTracker

    arrays: List[Any] = []  # kept alive past the run, to be measured

    def keep(cls: Any, attr: str) -> None:
        real = cls.__init__

        def init(self: Any, *args: Any, **kwargs: Any) -> None:
            real(self, *args, **kwargs)
            arrays.append(getattr(self, attr))

        cls.__init__ = init

    keep(AddressSpace, "words")
    keep(WordTracker, "_owner")
    run_case(app, dataset, label, **extra)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    page = resource.getpagesize()
    spans = [(a.ctypes.data // page * page,
              -(-(a.ctypes.data + a.nbytes) // page) * page) for a in arrays]
    maps = smaps()
    resident = sum(
        fields.get("Rss", 0) * 1024 for start, end, fields in maps
        if any(lo <= start and end <= hi for lo, hi in spans)
    )
    return {
        "ru_maxrss_mb": usage.ru_maxrss / 1024,
        "minor_faults": usage.ru_minflt,
        "anon_huge_mb": sum(f.get("AnonHugePages", 0) for *_, f in maps) / 1024,
        "arrays": len(arrays),
        "arrays_mb": sum(a.nbytes for a in arrays) / MB,
        "resident_mb": resident / MB,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0] if __doc__ else None)
    parser.add_argument("app")
    parser.add_argument("dataset")
    parser.add_argument("label")
    parser.add_argument("extra", nargs="*", metavar="key=value")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if any("=" not in pair for pair in args.extra):
        parser.error("overrides are key=value pairs")
    cell = [args.app, args.dataset, args.label, *args.extra]
    if args.child:
        print(json.dumps(measure(*cell[:3], parse_extra(args.extra))))
        return 0
    proc = subprocess.run(
        [sys.executable, __file__, "--child", *cell],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines or not lines[-1].startswith("{"):
        print(f"{' '.join(cell)}: the cell failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    r = json.loads(lines[-1])
    print(" ".join(cell))
    print(f"  ru_maxrss        {r['ru_maxrss_mb']:8.1f} MB")
    print(f"  minor faults     {r['minor_faults']:8d}")
    print(f"  AnonHugePages    {r['anon_huge_mb']:8.1f} MB")
    print(f"  images resident  {r['resident_mb']:8.1f} MB of "
          f"{r['arrays_mb']:.1f} MB ({r['arrays']} images and tag arrays)")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
