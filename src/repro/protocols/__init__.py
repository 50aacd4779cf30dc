"""repro.protocols -- the pluggable consistency-protocol zoo.

The paper's results are all measured under TreadMarks' multi-writer lazy
release consistency.  This package makes the protocol a pluggable axis
(``SimConfig.protocol``) so the false-sharing-vs-aggregation trade-off
can be swept *across protocol designs*, not just across unit sizes:

===========  ===========================================================
``tm-lrc``   TreadMarks LRC (the paper's protocol; the default).
             Lazy diffs, multi-writer, fault-time gathers from every
             concurrent writer.
``hlrc``     Home-based LRC.  Diffs eagerly flushed to a per-unit home
             at release; a fault is one whole-unit round trip per home.
``erc``      Eager release consistency.  Diffs + write notices pushed
             to all sharers at every release; no faults at all.
``swi``      Single-writer invalidate.  One owner per unit,
             invalidations on ownership transfer; false sharing
             ping-pongs ownership.
===========  ===========================================================

All four implement release consistency for data-race-free programs, so
every application's final data (its checksum) is protocol-invariant --
the cross-protocol oracle asserted by
``tests/integration/test_protocol_zoo.py``.  What differs is *cost*:
where each protocol pays (release vs fault), in what currency (messages
vs data vs mprotects), and how the bill scales with the consistency-unit
size -- which is exactly what ``python -m repro.bench protocols`` tabulates.

A protocol is one :class:`repro.dsm.lrc.LrcProc` subclass registered as
``ProtocolInfo(name, description, proc_cls)`` (see :mod:`.base` for the
hooks it overrides and the fault and release service it shares); the
runtime resolves ``SimConfig.protocol`` through :func:`get_protocol`.
"""

from repro.dsm.lrc import LrcProc
from repro.protocols.base import (
    ProtocolInfo,
    all_protocols,
    get_protocol,
    protocol_names,
    register,
)

register(
    ProtocolInfo(
        name="tm-lrc",
        description=(
            "TreadMarks lazy release consistency (the paper's protocol): "
            "lazy diffs, multi-writer, fault-time gathers per writer"
        ),
        proc_cls=LrcProc,
    )
)

# Self-registering implementations (import order fixes nothing: the
# registry is sorted by name wherever it is enumerated).
from repro.protocols import erc as _erc  # noqa: E402
from repro.protocols import hlrc as _hlrc  # noqa: E402
from repro.protocols import swi as _swi  # noqa: E402

__all__ = [
    "ProtocolInfo",
    "all_protocols",
    "get_protocol",
    "protocol_names",
    "register",
]

del _erc, _hlrc, _swi
