"""Protocol event tracing, timeline export, and race detection.

The trace subsystem is the observability layer over the simulated DSM:

* :mod:`repro.trace.events` / :mod:`repro.trace.recorder` -- typed,
  opt-in structured event records (``SimConfig.trace=True``) emitted
  from observer hooks in the sim substrate and the protocol core;
* :mod:`repro.trace.export` -- Chrome-trace/Perfetto JSON (one track
  per simulated processor, message flow arrows) and JSONL export;
* :mod:`repro.trace.hb` -- a vector-clock happens-before race detector
  replaying the access trace;
* :mod:`repro.trace.attribution` -- a per-page false-sharing report
  ranking pages by useless messages/bytes, tied to allocation labels,
  and the per-barrier-epoch cost table;
* ``python -m repro trace <app> <dataset> <unit>`` (see
  :mod:`repro.cli`) runs one cell traced and prints all of the above.

Tracing is *zero-cost with respect to the simulation*: the hooks only
observe state the protocol already computed, so a traced run yields
bit-identical simulated times and message counts to an untraced run
(asserted in ``tests/trace/test_zero_cost.py``).
"""

from repro.trace.events import (
    AccessEvent,
    BarrierArriveEvent,
    BarrierDepartEvent,
    DiffApplyEvent,
    DiffCreateEvent,
    FaultEvent,
    GroupBuildEvent,
    GroupDissolveEvent,
    GroupFetchEvent,
    LockAcquireEvent,
    LockReleaseEvent,
    MessageEvent,
    ParkEvent,
    ResumeEvent,
    TraceEvent,
    TwinEvent,
    event_to_dict,
)
from repro.trace.recorder import TraceRecorder
from repro.trace.export import chrome_trace, write_chrome_trace, write_jsonl
from repro.trace.hb import Race, RaceReport, detect_races
from repro.trace.attribution import PageAttribution, attribute_pages, render_attribution

__all__ = [
    "TraceEvent",
    "AccessEvent",
    "FaultEvent",
    "TwinEvent",
    "DiffCreateEvent",
    "DiffApplyEvent",
    "MessageEvent",
    "LockAcquireEvent",
    "LockReleaseEvent",
    "BarrierArriveEvent",
    "BarrierDepartEvent",
    "GroupBuildEvent",
    "GroupFetchEvent",
    "GroupDissolveEvent",
    "ParkEvent",
    "ResumeEvent",
    "event_to_dict",
    "TraceRecorder",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "Race",
    "RaceReport",
    "detect_races",
    "PageAttribution",
    "attribute_pages",
    "render_attribution",
]
