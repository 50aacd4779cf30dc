"""Cost model for the simulated platform.

All costs are expressed in *microseconds* of simulated time.  The defaults
are calibrated against the measurements reported in Section 5.1 of the
paper for the Rice platform (166 MHz Pentiums, FreeBSD 2.1.6, 100 Mbps
switched Ethernet, UDP/IP):

* round-trip latency for a 1-byte UDP message: 296 us  -> one-way 148 us
* time to acquire a lock: 374 - 574 us
* 8-processor barrier: 861 us
* time to obtain a diff: 579 - 1746 us
* hardware page size: 4 KB

The derived constants below reproduce those figures to within a few
percent; see ``tests/sim/test_config.py`` which checks the calibration
arithmetic, and ``benchmarks/test_micro.py`` which re-measures them on the
simulated platform.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

#: Name of the default consistency protocol (TreadMarks LRC).  Kept here
#: rather than in :mod:`repro.protocols` because the config layer must
#: not depend on the protocol implementations (they depend on it).
DEFAULT_PROTOCOL = "tm-lrc"


@dataclass(frozen=True)
class SimConfig:
    """Immutable bundle of platform and protocol cost parameters.

    Instances are cheap value objects; use :meth:`replace` to derive
    variants (e.g. a different consistency-unit size) without mutating
    shared state.
    """

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    nprocs: int = 8
    """Number of simulated processors."""

    # ------------------------------------------------------------------
    # Memory geometry
    # ------------------------------------------------------------------
    page_size: int = 4096
    """Hardware page size in bytes (4 KB on the paper's Pentiums)."""

    word_size: int = 4
    """Instrumentation word size in bytes (the paper classifies useful /
    useless data at 4-byte word granularity)."""

    unit_pages: int = 1
    """Consistency unit size in hardware pages (1 -> 4 KB, 2 -> 8 KB,
    4 -> 16 KB).  Ignored when :attr:`dynamic` is true."""

    dynamic: bool = False
    """Use the Section-4 dynamic page-group aggregation algorithm instead
    of a static consistency unit."""

    protocol: str = DEFAULT_PROTOCOL
    """Consistency protocol implementation (a name registered in
    :mod:`repro.protocols`): ``"tm-lrc"`` (TreadMarks lazy release
    consistency, the paper's protocol), ``"hlrc"`` (home-based LRC),
    ``"erc"`` (eager release consistency), or ``"swi"`` (single-writer
    invalidate).  The default is **omitted** from :meth:`to_dict` and
    hence from :meth:`canonical_json`, so cache keys, cell seeds, and
    golden baselines produced before this field existed stay valid
    byte-for-byte."""

    access_mode: str = "bulk"
    """Engine path for bulk region operations (``Proc.read_range`` /
    ``write_range`` and the gather/scatter entry points): ``"bulk"``
    resolves clock charges, twin creation, and diff-word usefulness
    analytically per touched range with vectorized data movement;
    ``"scalar"`` forces the word-loop reference path that defines the
    semantics.  The two modes are bit-identical in every counter,
    checksum, and trace event (enforced by ``tests/equivalence/``); the
    default is **omitted** from :meth:`to_dict` like :attr:`protocol`,
    so cache keys and golden baselines predating the field stay valid
    byte-for-byte."""

    max_group_pages: int = 8
    """Maximum number of pages per dynamic page group (the paper leaves
    this implementation-defined)."""

    # ------------------------------------------------------------------
    # Network costs
    # ------------------------------------------------------------------
    msg_latency_us: float = 148.0
    """One-way wire+stack latency of a small message (296 us RTT / 2)."""

    byte_time_us: float = 0.08
    """Per-byte transfer time: 100 Mbps = 12.5 MB/s = 0.08 us/byte."""

    msg_header_bytes: int = 32
    """UDP/IP + TreadMarks header bytes charged per message."""

    # ------------------------------------------------------------------
    # Protocol service costs
    # ------------------------------------------------------------------
    fault_trap_us: float = 70.0
    """Kernel trap + handler dispatch on an access miss (SIGSEGV path)."""

    msg_cpu_us: float = 35.0
    """Requester-side CPU cost per message (UDP send syscall / receive
    processing).  Charged twice per fault-time exchange (request out,
    reply in); this is why extra *messages* cost far more than extra
    *data* on this class of platform (Section 2)."""

    mprotect_us: float = 12.0
    """One mprotect call covering one hardware page."""

    diff_service_us: float = 140.0
    """Fixed remote-side cost to service one diff request message
    (interrupt, lookup, reply construction)."""

    twin_byte_us: float = 0.010
    """Per-byte cost of copying a consistency unit to create a twin
    (~100 MB/s memcpy on the 166 MHz Pentium)."""

    diff_create_byte_us: float = 0.005
    """Per-byte cost of the word-compare scan that builds a diff
    (~3 cycles/word at 166 MHz).  Charged lazily, at first request, and
    cached per created diff as in TreadMarks."""

    diff_apply_byte_us: float = 0.012
    """Per-diff-byte cost of patching a diff into a page copy."""

    write_notice_bytes: int = 12
    """Wire size of one write notice (page id + vector-clock entry)."""

    # ------------------------------------------------------------------
    # Synchronization costs
    # ------------------------------------------------------------------
    lock_manager_us: float = 40.0
    """Manager-side processing for a lock request (lookup + forward)."""

    lock_messages: int = 3
    """Messages for a remote lock acquire: request to the static manager,
    forward to the last owner, grant (with write notices) to the
    requester.  A re-acquire by the current holder is free."""

    barrier_service_us: float = 25.0
    """Per-arrival manager processing at a barrier."""

    # ------------------------------------------------------------------
    # Local computation costs (application-visible)
    # ------------------------------------------------------------------
    flop_us: float = 0.055
    """Cost of one floating-point operation including its memory traffic
    (~166 MHz, ~9 cycles amortized)."""

    word_access_us: float = 0.012
    """Per-word cost of an instrumented shared-memory access."""

    region_op_us: float = 1.0
    """Fixed per-region-operation overhead (address arithmetic, page
    lookup) charged for every shared read/write call."""

    # ------------------------------------------------------------------
    # Accounting switches
    # ------------------------------------------------------------------
    count_sync_messages: bool = True
    """Include lock/barrier messages in the total message counts reported
    by the harness (the paper's totals include them; they are invariant
    across consistency-unit sizes).  Only ``True`` is implemented:
    :meth:`validate` rejects ``False``, which no counter honours."""

    trace: bool = False
    """Record a structured protocol event trace (see :mod:`repro.trace`).
    Tracing is observer-only: a traced run yields bit-identical simulated
    times and message counts to the same run untraced (asserted in
    ``tests/trace/test_zero_cost.py``); the only cost is host memory for
    the event list."""

    fault_plan: str = ""
    """Canonical JSON of a :class:`repro.faults.plan.FaultPlan` ("" =
    perfectly reliable network, the paper's assumption).  A nonempty
    plan attaches a :class:`repro.faults.inject.FaultInjector` to the
    run: message loss, duplication, reorder, jitter, and node straggler
    windows are modelled as *shadow costs* -- retransmission stalls and
    delivery delays accrue in a side ledger added to the processor
    clocks after the run, and injected copies appear as RETRANSMIT-class
    ledger messages -- so the protocol schedule, checksums, and all
    useful-data counters stay bit-identical to the fault-free run (the
    chaos gate in :mod:`repro.faults.gate` enforces this invariant).
    Carried as a string so config serialization, hashing, and sweep-cell
    identity extend to fault plans unchanged."""

    gc_threshold: int = 2048
    """Garbage-collect consistency metadata at a barrier once the live
    interval count exceeds this (0 disables).  TreadMarks performs the
    analogous periodic reclamation of diffs and intervals; collection is
    only a memory optimization and never changes results."""

    parallel_fetch: bool = True
    """Fetch diffs from distinct writers in parallel (stall = max of the
    per-writer response times), as TreadMarks does.  Setting this false
    serializes the exchanges (stall = sum) -- an ablation isolating the
    aggregation advantage the paper attributes to parallel diff
    requests."""

    combine_requests: bool = True
    """Combine all diffs needed from one writer into a single exchange.
    Setting this false issues one exchange per (writer, unit) pair -- an
    ablation of the Section-4 request-combining optimization."""

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    @property
    def unit_bytes(self) -> int:
        """Consistency unit size in bytes."""
        return self.page_size * self.unit_pages

    @property
    def words_per_page(self) -> int:
        """Number of instrumentation words in one hardware page."""
        return self.page_size // self.word_size

    @property
    def words_per_unit(self) -> int:
        """Number of instrumentation words in one consistency unit."""
        return self.unit_bytes // self.word_size

    def msg_cost_us(self, payload_bytes: int) -> float:
        """One-way cost of a message carrying ``payload_bytes`` bytes."""
        return (
            self.msg_latency_us
            + (payload_bytes + self.msg_header_bytes) * self.byte_time_us
        )

    def barrier_overhead_us(self, nprocs: int) -> float:
        """Stall between the last arrival and departure of a barrier.

        Arrival and departure each cost one message latency, and the
        manager serially processes every arrival; for ``nprocs == 8`` with
        the default constants this evaluates to ~861 us, the figure
        measured in Section 5.1.
        """
        return 2 * self.msg_latency_us + nprocs * self.barrier_service_us + 365.0

    def lock_acquire_overhead_us(self, remote: bool) -> float:
        """End-to-end cost of acquiring an uncontended lock.

        ``remote`` selects the 3-hop path (requester -> manager -> last
        owner -> requester); a locally-cached re-acquire pays only the
        manager round trip.  The defaults land inside the 374-574 us range
        measured in Section 5.1.
        """
        if remote:
            return self.lock_messages * self.msg_latency_us + 3 * self.lock_manager_us
        return 2 * self.msg_latency_us + 2 * self.lock_manager_us

    def validate(self) -> None:
        """Raise :class:`ValueError` on an inconsistent configuration."""
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.page_size <= 0 or self.page_size % self.word_size:
            raise ValueError(
                f"page_size must be a positive multiple of word_size, got "
                f"{self.page_size}"
            )
        if self.unit_pages < 1:
            raise ValueError(f"unit_pages must be >= 1, got {self.unit_pages}")
        if self.max_group_pages < 1:
            raise ValueError(
                f"max_group_pages must be >= 1, got {self.max_group_pages}"
            )
        if self.word_size != 4:
            raise ValueError("the instrumentation assumes 4-byte words")
        if not self.count_sync_messages:
            raise ValueError(
                "count_sync_messages=False is not implemented: message "
                "totals always include lock/barrier messages"
            )
        if self.access_mode not in ("bulk", "scalar"):
            raise ValueError(
                f"access_mode must be 'bulk' or 'scalar', got "
                f"{self.access_mode!r}"
            )
        if self.protocol != DEFAULT_PROTOCOL:
            # Check against the registry (lazy import: the protocols
            # package depends on this module, not the other way around).
            # The default name skips the import so constructing a stock
            # config never pulls in the protocol implementations.
            from repro.protocols import protocol_names

            if self.protocol not in protocol_names():
                raise ValueError(
                    f"unknown protocol {self.protocol!r}; registered: "
                    f"{protocol_names()}"
                )
        if self.fault_plan:
            # Parse-validate the embedded plan (lazy import: the faults
            # package depends on this module, not the other way around).
            from repro.faults.plan import parse_plan

            parse_plan(self.fault_plan).validate(self.nprocs)

    def replace(self, **kwargs: object) -> "SimConfig":
        """Return a copy with the given fields replaced (and validated)."""
        cfg = dataclasses.replace(self, **kwargs)  # type: ignore[arg-type]
        cfg.validate()
        return cfg

    # ------------------------------------------------------------------
    # Stable serialization (the result cache and golden baselines key on
    # this; see repro.bench.cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """All fields as a JSON-safe dict (ints, floats, bools only).

        ``protocol`` and ``access_mode`` are omitted when they hold their
        defaults, so the canonical JSON (and everything keyed on it:
        config hashes, cache keys, cell seeds, golden baselines) of a
        default config is byte-identical to what it was before each
        field existed.  :meth:`from_dict` fills the missing keys back in
        via the dataclass defaults.

        Every field is an int, float, bool or str, so a shallow read of
        the fields equals ``dataclasses.asdict`` (whose deep copy returns
        such values unchanged) at a fraction of the cost; the cache key
        of every cell goes through here."""
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        if data["protocol"] == DEFAULT_PROTOCOL:
            del data["protocol"]
        if data["access_mode"] == "bulk":
            del data["access_mode"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        """Rebuild a validated config from :meth:`to_dict` output.

        Unknown keys raise so a cache entry written by a future config
        schema is rejected rather than silently reinterpreted."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SimConfig fields: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def canonical_json(self) -> str:
        """Canonical JSON form: every field, keys sorted, no whitespace.

        Two configs are behaviorally identical iff their canonical JSON
        is byte-identical (floats serialize via repr, which round-trips
        exactly), so this string is a sound cache-key component.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        """Short stable digest of :meth:`canonical_json`."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


#: Field names in declaration order, read once (``to_dict`` runs per key).
_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(SimConfig))

#: The configuration matching the paper's platform with the baseline 4 KB
#: consistency unit.  Derive variants with :meth:`SimConfig.replace`.
PAPER_PLATFORM = SimConfig()
