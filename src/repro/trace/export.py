"""Timeline export: Chrome-trace/Perfetto JSON and raw JSONL.

``chrome_trace`` converts a recorded run into the Trace Event Format
understood by ``chrome://tracing`` and https://ui.perfetto.dev: one
process ("repro-sim"), one thread track per simulated processor, with

* "X" (complete) slices for compute segments (scheduler resume to the
  next park), lock waits, barrier waits, and fault stalls,
* flow arrows ("s"/"f" pairs keyed by message id) for every protocol
  message, drawn from the sender's track at send time to the receiver's
  track at the modelled receive time,
* instant events for twins, diff create/apply, and dynamic page-group
  build/fetch/dissolve.

All timestamps are the simulated microsecond clocks already recorded by
the protocol; nothing here re-derives timing.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.trace.events import TraceEvent, event_to_dict
from repro.trace.recorder import TraceRecorder

#: Chrome trace pid used for all simulated-processor tracks.
SIM_PID = 0


def _metadata(nprocs: int, label: str) -> List[dict]:
    out = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": SIM_PID,
            "args": {"name": label or "repro-sim"},
        }
    ]
    for p in range(nprocs):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": SIM_PID,
                "tid": p,
                "args": {"name": f"P{p}"},
            }
        )
        out.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": SIM_PID,
                "tid": p,
                "args": {"sort_index": p},
            }
        )
    return out


def _slice(name: str, cat: str, tid: int, ts: float, dur: float, args=None) -> dict:
    ev = {
        "name": name,
        "cat": cat,
        "ph": "X",
        "pid": SIM_PID,
        "tid": tid,
        "ts": ts,
        "dur": max(dur, 0.0),
    }
    if args:
        ev["args"] = args
    return ev


def _instant(name: str, cat: str, tid: int, ts: float, args=None) -> dict:
    ev = {
        "name": name,
        "cat": cat,
        "ph": "i",
        "s": "t",
        "pid": SIM_PID,
        "tid": tid,
        "ts": ts,
    }
    if args:
        ev["args"] = args
    return ev


def chrome_trace(
    trace: TraceRecorder,
    label: str = "",
    flows: bool = True,
    instants: bool = True,
) -> dict:
    """Build the Chrome-trace JSON document for a recorded run."""
    nprocs = trace.config.nprocs
    out: List[dict] = _metadata(nprocs, label or f"{trace.app_name} {trace.dataset}".strip())
    last_resume: Dict[int, float] = {p: 0.0 for p in range(nprocs)}
    last_arrive: Dict[tuple, float] = {}

    for ev in trace.events:
        kind = ev.kind
        if kind == "resume":
            last_resume[ev.proc] = ev.ts_us
        elif kind == "park":
            start = last_resume.get(ev.proc, 0.0)
            out.append(
                _slice(
                    "run",
                    "cpu",
                    ev.proc,
                    start,
                    ev.ts_us - start,
                    {"ends_at": ev.op_kind, "arg": ev.arg},
                )
            )
        elif kind == "fault":
            name = "monitor-fault" if ev.monitoring else "fault"
            out.append(
                _slice(
                    name,
                    "dsm",
                    ev.proc,
                    ev.ts_us,
                    ev.cost_us,
                    {
                        "units": list(ev.units),
                        "writers": ev.writers,
                        "stall_us": ev.stall_us,
                        "fault_id": ev.fault_id,
                    },
                )
            )
        elif kind == "lock_acquire":
            out.append(
                _slice(
                    f"lock {ev.lock_id}",
                    "sync",
                    ev.proc,
                    ev.req_ts_us,
                    ev.wake_ts_us - ev.req_ts_us,
                    {"cached": ev.cached},
                )
            )
        elif kind == "barrier_arrive":
            last_arrive[(ev.proc, ev.barrier_id)] = ev.ts_us
        elif kind == "barrier_depart":
            start = last_arrive.pop((ev.proc, ev.barrier_id), ev.ts_us)
            out.append(
                _slice(
                    f"barrier {ev.barrier_id}",
                    "sync",
                    ev.proc,
                    start,
                    ev.wake_ts_us - start,
                    {"instance": ev.instance},
                )
            )
        elif kind == "message" and flows:
            name = ev.klass
            args = {"bytes": ev.payload_bytes, "msg_id": ev.msg_id}
            out.append(
                {
                    "name": name,
                    "cat": "msg",
                    "ph": "s",
                    "id": ev.msg_id,
                    "pid": SIM_PID,
                    "tid": ev.src,
                    "ts": ev.ts_us,
                    "args": args,
                }
            )
            out.append(
                {
                    "name": name,
                    "cat": "msg",
                    "ph": "f",
                    "bp": "e",
                    "id": ev.msg_id,
                    "pid": SIM_PID,
                    "tid": ev.dst,
                    "ts": ev.recv_ts_us,
                    "args": args,
                }
            )
        elif instants and kind == "twin":
            out.append(_instant("twin", "dsm", ev.proc, ev.ts_us, {"unit": ev.unit}))
        elif instants and kind == "diff_create":
            out.append(
                _instant(
                    "diff create",
                    "dsm",
                    ev.proc,
                    ev.ts_us,
                    {"unit": ev.unit, "nwords": ev.nwords, "for": ev.requester},
                )
            )
        elif instants and kind == "diff_apply":
            out.append(
                _instant(
                    "diff apply",
                    "dsm",
                    ev.proc,
                    ev.ts_us,
                    {"unit": ev.unit, "nwords": ev.nwords, "from": ev.writer},
                )
            )
        elif instants and kind == "group_build":
            out.append(
                _instant("group build", "agg", ev.proc, ev.ts_us, {"pages": list(ev.pages)})
            )
        elif instants and kind == "group_fetch":
            out.append(
                _instant(
                    "group fetch",
                    "agg",
                    ev.proc,
                    ev.ts_us,
                    {"page": ev.page, "group": list(ev.group), "fetched": list(ev.fetched)},
                )
            )
        elif instants and kind == "group_dissolve":
            out.append(
                _instant("group dissolve", "agg", ev.proc, ev.ts_us, {"page": ev.page})
            )
        elif instants and kind == "fault_injected":
            out.append(
                _instant(
                    f"fault:{ev.fault}",
                    "fault",
                    ev.proc,
                    ev.ts_us,
                    {
                        "msg_id": ev.msg_id,
                        "klass": ev.klass,
                        "delay_us": ev.delay_us,
                    },
                )
            )
        elif kind == "retransmit":
            out.append(
                _slice(
                    "retransmit",
                    "fault",
                    ev.proc,
                    ev.ts_us - ev.stall_us,
                    ev.stall_us,
                    {
                        "msg_id": ev.msg_id,
                        "klass": ev.klass,
                        "attempt": ev.attempt,
                    },
                )
            )

    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {
            "app": trace.app_name,
            "dataset": trace.dataset,
            "nprocs": nprocs,
            "events": len(trace.events),
        },
    }


def write_chrome_trace(path, trace: TraceRecorder, label: str = "") -> dict:
    """Write the Chrome-trace JSON for ``trace`` to ``path``; returns
    the document."""
    doc = chrome_trace(trace, label=label)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc


def witness_chrome_trace(
    nprocs: int,
    steps: Sequence[dict],
    violation: dict,
    label: str = "",
) -> dict:
    """Chrome-trace document for a model-checker violation witness.

    ``steps`` are the checker's step records (``{"i", "proc", "instr"}``
    dicts, one per executed litmus instruction in schedule order);
    ``violation`` is its violation record.  Each step becomes an "X"
    slice on the executing processor's track at ``ts = 10 * i`` (the
    witness is an interleaving, not a timing claim -- equal-width slices
    keep the schedule readable), and the violating step gets an instant
    marker.  The raw schedule rides along in ``otherData`` so the
    witness file stays replayable by
    :func:`repro.analyze.modelcheck.replay_witness`.
    """
    out: List[dict] = _metadata(nprocs, label or "modelcheck witness")
    bad_step = violation.get("step")
    for step in steps:
        i = step["i"]
        instr = step["instr"]
        name = " ".join(str(x) for x in instr)
        args = {"i": i, "instr": list(instr)}
        out.append(
            _slice(name, "litmus", step["proc"], 10.0 * i, 8.0, args)
        )
        if bad_step == i:
            out.append(
                _instant(
                    f"VIOLATION: {violation['kind']}",
                    "violation",
                    step["proc"],
                    10.0 * i,
                    dict(violation),
                )
            )
    if bad_step is not None and bad_step >= len(steps):
        # Terminal-state violation: anchor the marker after the last step
        # on the reading processor's track.
        out.append(
            _instant(
                f"VIOLATION: {violation['kind']}",
                "violation",
                violation.get("proc", 0),
                10.0 * len(steps),
                dict(violation),
            )
        )
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {
            "nprocs": nprocs,
            "schedule": [step["proc"] for step in steps],
            "violation": dict(violation),
        },
    }


def write_jsonl(path, events: Sequence[TraceEvent]) -> int:
    """Write one JSON object per event; returns the event count."""
    n = 0
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(event_to_dict(ev)))
            fh.write("\n")
            n += 1
    return n
