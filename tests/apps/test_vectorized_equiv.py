"""Differential property suite for the vectorized kernels (PR 9).

Every vectorized hot path is held to its scalar predecessor as the
oracle; this suite drives randomized inputs through both and asserts
*bit-identity* (``np.array_equal``, never ``allclose``):

* ``barnes.build_tree``            vs ``build_tree_ref`` (below)
* ``barnes.batched_forces_soa``    vs ``barnes.batched_forces`` (AoS)
* ``LrcProc._interval_diffs`` (the packed record) vs a per-unit
  ``create_diff`` loop (in situ, on real twin-pool state, on small and
  large intervals, dense and sparse pages), plus the RLE wire-size and
  round-trip invariants of each diff the record builds
* the batched write-notice application's ``pending_n`` counter array
  vs the per-unit ``pending`` lists it summarizes, whose entries are the
  writing intervals' shared notice tuples
* random gather/scatter programs under ``access_mode='bulk'`` vs the
  range-decomposed ``'scalar'`` mode, over every protocol, static and
  dynamic units, and raw ranges that straddle units, span more than two,
  or overlap (the differential gate of the one batched access path).
"""

import dataclasses
import sys
from typing import Dict, List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.barnes import (
    BUCKET,
    CELL_REC,
    _soa_noop,
    batched_forces,
    batched_forces_soa,
    build_tree,
)
from repro.core import SimConfig, TreadMarks
from repro.dsm.address_space import AddressSpace
from repro.dsm.diff import _wire_bytes, apply_diff, create_diff
from repro.dsm.lrc import LrcProc

# ----------------------------------------------------------------------
# Barnes tree construction and force kernels
# ----------------------------------------------------------------------


class _Node:
    __slots__ = ("cx", "cy", "cz", "size", "bodies")

    def __init__(self, cx: float, cy: float, cz: float, size: float) -> None:
        self.cx, self.cy, self.cz, self.size = cx, cy, cz, size
        self.bodies: List[int] = []  # leaf contents until split


def build_tree_ref(pos: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Sequential per-body-insertion tree construction: the differential
    oracle for the vectorized ``barnes.build_tree``."""
    n = pos.shape[0]
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    center = (lo + hi) / 2.0
    size = float((hi - lo).max()) * 1.001 + 1e-6

    nodes: List[_Node] = [_Node(center[0], center[1], center[2], size)]
    slots: List[Dict[int, int]] = [{}]  # node -> octant -> child node id

    def octant(node: _Node, p) -> int:
        return (
            (1 if p[0] >= node.cx else 0)
            | (2 if p[1] >= node.cy else 0)
            | (4 if p[2] >= node.cz else 0)
        )

    def child_center(node: _Node, o: int) -> Tuple[float, float, float, float]:
        q = node.size / 4.0
        return (
            node.cx + (q if o & 1 else -q),
            node.cy + (q if o & 2 else -q),
            node.cz + (q if o & 4 else -q),
            node.size / 2.0,
        )

    def insert(nid: int, j: int) -> None:
        while True:
            node = nodes[nid]
            if not slots[nid]:  # leaf
                if len(node.bodies) < BUCKET:
                    node.bodies.append(j)
                    return
                spill = node.bodies
                node.bodies = []
                for b in spill:
                    _descend_new(nid, b)
                # fall through: continue inserting j below
            o = octant(node, pos[j])
            if o not in slots[nid]:
                cx, cy, cz, s = child_center(node, o)
                nodes.append(_Node(cx, cy, cz, s))
                slots.append({})
                slots[nid][o] = len(nodes) - 1
            nid = slots[nid][o]

    def _descend_new(nid: int, j: int) -> None:
        o = octant(nodes[nid], pos[j])
        if o not in slots[nid]:
            cx, cy, cz, s = child_center(nodes[nid], o)
            nodes.append(_Node(cx, cy, cz, s))
            slots.append({})
            slots[nid][o] = len(nodes) - 1
        insert(slots[nid][o], j)

    for j in range(n):
        insert(0, j)

    # Serialize pre-order; compute centers of mass bottom-up via the
    # serialization recursion.
    cells = np.zeros((len(nodes), CELL_REC), dtype=np.float32)
    order: Dict[int, int] = {}

    def assign(nid: int) -> int:
        cid = len(order)
        order[nid] = cid
        for o in sorted(slots[nid]):
            assign(slots[nid][o])
        return cid

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000))
    try:
        assign(0)

        def fill(nid: int) -> Tuple[np.ndarray, np.float32]:
            cid = order[nid]
            node = nodes[nid]
            com = np.zeros(3, dtype=np.float32)
            m = np.float32(0.0)
            ci = 0
            for b in node.bodies:
                cells[cid, 8 + ci] = np.float32(-(b + 1))
                ci += 1
                com = com + pos[b].astype(np.float32) * mass[b]
                m = m + np.float32(mass[b])
            for o in sorted(slots[nid]):
                child = slots[nid][o]
                ccom, cm = fill(child)
                cells[cid, 8 + ci] = np.float32(order[child] + 1)
                ci += 1
                com = com + ccom * cm
                m = m + cm
            if m > 0:
                com = (com / m).astype(np.float32)
            cells[cid, 0:3] = com
            cells[cid, 4] = np.float32(node.size)
            cells[cid, 3] = m
            return com, m

        fill(0)
    finally:
        sys.setrecursionlimit(old_limit)
    return cells


@st.composite
def clouds(draw):
    """Random body clouds: uniform, clustered, and degenerate (exact
    duplicate positions, capped at BUCKET per point so the octree
    terminates, as any physical input does)."""
    n = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**31 - 1))
    mode = draw(st.sampled_from(["uniform", "clustered", "degenerate"]))
    rng = np.random.default_rng(seed)
    if mode == "uniform":
        pos = rng.uniform(-100.0, 100.0, (n, 3)).astype(np.float32)
    elif mode == "clustered":
        centers = rng.uniform(-50.0, 50.0, (max(1, n // 16), 3))
        pick = rng.integers(0, centers.shape[0], n)
        pos = (centers[pick] + rng.normal(0.0, 0.5, (n, 3))).astype(
            np.float32
        )
    else:
        npoints = (n + 7) // 8
        base = rng.uniform(-10.0, 10.0, (npoints, 3)).astype(np.float32)
        pick = np.repeat(np.arange(npoints), 8)[:n]
        pos = base[pick]
    mass = rng.uniform(0.5, 2.0, n).astype(np.float32)
    return pos, mass


@given(clouds())
@settings(max_examples=40, deadline=None)
def test_build_tree_matches_reference(cloud):
    pos, mass = cloud
    vec = build_tree(pos.copy(), mass.copy())
    ref = build_tree_ref(pos.copy(), mass.copy())
    assert vec.shape == ref.shape
    assert np.array_equal(vec, ref)


@given(clouds(), st.integers(1, 7))
@settings(max_examples=25, deadline=None)
def test_batched_forces_soa_matches_aos(cloud, stride):
    """The SoA kernel must reproduce the AoS kernel bit-for-bit on a
    worker-shaped batch (a strided subset of the bodies)."""
    pos, mass = cloud
    n = pos.shape[0]
    tree = build_tree(pos.copy(), mass.copy())
    bodies = np.zeros((n, 16), dtype=np.float32)
    bodies[:, 0:3] = pos
    bodies[:, 9] = mass
    rows = np.arange(0, n, stride, dtype=np.int64)
    pos_i = np.ascontiguousarray(pos[rows])

    acc_aos, inter_aos = batched_forces(
        pos_i, rows, lambda cids: tree[cids], lambda js: bodies[js]
    )
    acc_soa, inter_soa = batched_forces_soa(
        pos_i,
        rows,
        (
            np.ascontiguousarray(tree[:, 0]),
            np.ascontiguousarray(tree[:, 1]),
            np.ascontiguousarray(tree[:, 2]),
            np.ascontiguousarray(tree[:, 3]),
            tree[:, 4] * tree[:, 4],
            tree[:, 8:16].astype(np.int32),
        ),
        (
            np.ascontiguousarray(bodies[:, 0]),
            np.ascontiguousarray(bodies[:, 1]),
            np.ascontiguousarray(bodies[:, 2]),
            np.ascontiguousarray(bodies[:, 9]),
        ),
        _soa_noop,
        _soa_noop,
    )
    assert np.array_equal(acc_soa, acc_aos)
    assert np.array_equal(inter_soa, inter_aos)


# ----------------------------------------------------------------------
# Interval diff kernel, in situ on real protocol state
# ----------------------------------------------------------------------

WPU = 1024  # words per 4 KB page
NPAGES = 210  # every proc owns > 64 pages: intervals of ~100 units


@st.composite
def write_programs(draw):
    """Barrier-phased programs where each processor writes only pages it
    owns (page p belongs to proc p % nprocs -- no races), with rounds
    drawn to close small intervals (a few pages) and large ones (more
    than 64 pages), the latter nearly full (dense) or touched a few
    words each (sparse)."""
    nprocs = draw(st.integers(2, 3))
    nrounds = draw(st.integers(1, 3))
    rounds = []
    for _ in range(nrounds):
        per_proc = {}
        for p in range(nprocs):
            mode = draw(st.sampled_from(["few", "dense", "sparse"]))
            own = list(range(p, NPAGES, nprocs))
            if mode == "few":
                k = draw(st.integers(1, 4))
            else:
                k = draw(st.integers(65, min(100, len(own))))
                assert k <= len(own)
            pages = own[:k]
            ops = []
            for page in pages:
                if mode == "dense":
                    start, length = 0, draw(st.integers(WPU // 2, WPU))
                else:
                    start = draw(st.integers(0, WPU - 4))
                    length = draw(st.integers(1, 4))
                value = draw(st.integers(1, 2**31))
                ops.append((page * WPU + start, length, value))
            per_proc[p] = ops
        rounds.append(per_proc)
    return nprocs, rounds


def _run_program(nprocs, rounds, **cfg_kwargs):
    tmk = TreadMarks(
        SimConfig(nprocs=nprocs, **cfg_kwargs),
        heap_bytes=NPAGES * WPU * 4,
    )
    arr = tmk.array("a", (NPAGES * WPU,), "uint32")

    def body(proc):
        for r, per_proc in enumerate(rounds):
            for start, length, value in per_proc[proc.id]:
                arr.write(proc, start, np.full(length, value, np.uint32))
            proc.barrier(r)
        got = arr.read(proc, 0, NPAGES * WPU)
        proc.barrier(999)
        return float(got.astype(np.float64).sum())

    return tmk.run(body), arr


@given(write_programs())
@settings(max_examples=8, deadline=None)
def test_interval_diffs_match_reference_in_situ(program):
    """Patch ``_interval_diffs`` to check its packed record against the
    per-unit ``create_diff`` loop on every real interval close,
    including the RLE invariants: the wire size matches
    ``diff._wire_bytes`` and applying the diff to the twin reconstructs
    current memory."""
    nprocs, rounds = program
    orig = LrcProc._interval_diffs
    closes = []

    def checked(self):
        packed = orig(self)
        units = np.flatnonzero(self.twinned).tolist()
        assert packed.units.tolist() == units
        for unit in units:
            d = packed.diff_for(unit)
            r = create_diff(unit, self.twin(unit), self.space.unit_view(unit))
            assert np.array_equal(d.idx, r.idx)
            assert d.idx.dtype == r.idx.dtype
            assert np.array_equal(d.values, r.values)
            assert d.nwords == r.nwords == d.idx.shape[0]
            assert d.wire_bytes == r.wire_bytes == _wire_bytes(d.idx)
            twin = self.twin(unit).copy()
            apply_diff(d, twin)
            assert np.array_equal(twin, self.space.unit_view(unit))
        closes.append(len(units))
        return packed

    LrcProc._interval_diffs = checked
    try:
        _run_program(nprocs, rounds)
    finally:
        LrcProc._interval_diffs = orig
    assert closes  # the patch actually ran


@given(write_programs())
@settings(max_examples=8, deadline=None)
def test_pending_n_matches_pending_lists(program):
    """After every batched notice application the ``pending_n`` counter
    array must equal the lengths of the per-unit notice lists it
    summarizes (the fetch path trusts the array to find cold units), and
    every listed notice is its interval's one shared tuple."""
    nprocs, rounds = program
    orig = LrcProc.apply_notices_upto
    calls = []

    def checked(self, new_vc):
        out = orig(self, new_vc)
        for unit, lst in self.pending.items():
            assert self.pending_n[unit] == len(lst), unit
            for nt in lst:
                assert nt is self.store.get(nt[0], nt[1]).notice
        calls.append(1)
        return out

    LrcProc.apply_notices_upto = checked
    try:
        _run_program(nprocs, rounds)
    finally:
        LrcProc.apply_notices_upto = orig
    assert calls


# ----------------------------------------------------------------------
# Random gather/scatter programs: bulk vs scalar decomposition
# ----------------------------------------------------------------------

ROWS, COLS = 96, 64  # 24 KB array: several pages, rows share pages
RAW_WORDS = 24 * WPU  # raw word region: 24 pages
RAW_SHIFT = 300  # per-proc write segments start mid-page (false sharing)

#: (unit_pages, dynamic): the dynamic aggregator needs single-page units.
UNIT_SHAPES = [(1, False), (1, True), (2, False), (4, False)]


def _raw_segment(p, nprocs):
    """Word range of the raw region that only proc ``p`` writes."""
    seg = RAW_WORDS // nprocs
    return p * seg + RAW_SHIFT, min((p + 1) * seg + RAW_SHIFT, RAW_WORDS)


@st.composite
def raw_ops(draw, lo, hi):
    """One raw gather/scatter inside ``[lo, hi)``: range lengths from a
    word to more than two 4 KB units, in drawn (not sorted) order, and
    either pairwise disjoint or free to overlap and repeat."""
    nwords = draw(st.sampled_from([1, 7, 64, 1000, 1100, 2500]))
    slots = (hi - lo) // nwords
    n = draw(st.integers(1, min(6, slots)))
    if draw(st.booleans()):  # overlapping
        starts = draw(
            st.lists(st.integers(lo, hi - nwords), min_size=n, max_size=n)
        )
    else:
        jitter = draw(st.integers(0, (hi - lo) - slots * nwords))
        picks = draw(
            st.lists(st.integers(0, slots - 1), min_size=n, max_size=n,
                     unique=True)
        )
        starts = [lo + jitter + k * nwords for k in picks]
    return starts, nwords, draw(st.integers(0, 2**31 - 1))


@st.composite
def row_programs(draw):
    nprocs = draw(st.integers(2, 3))
    nrounds = draw(st.integers(1, 2))
    rounds = []
    for _ in range(nrounds):
        per_proc = {}
        for p in range(nprocs):
            own = list(range(p, ROWS, nprocs))
            k = draw(st.integers(0, min(8, len(own))))
            wrows = sorted(
                draw(
                    st.lists(
                        st.sampled_from(own),
                        min_size=k,
                        max_size=k,
                        unique=True,
                    )
                )
            )
            value = draw(st.integers(1, 2**20))
            r0 = draw(st.integers(0, ROWS - 4))
            scatters = draw(
                st.lists(raw_ops(*_raw_segment(p, nprocs)), max_size=2)
            )
            gathers = draw(st.lists(raw_ops(0, RAW_WORDS), max_size=2))
            per_proc[p] = (wrows, value, (r0, r0 + 4), scatters, gathers)
        rounds.append(per_proc)
    return nprocs, rounds


def _run_rows(nprocs, rounds, access_mode, **cfg_kwargs):
    tmk = TreadMarks(
        SimConfig(nprocs=nprocs, access_mode=access_mode, **cfg_kwargs),
        heap_bytes=(ROWS * COLS + RAW_WORDS) * 4 + 65536,
    )
    arr = tmk.array("m", (ROWS, COLS), "uint32")
    raw = tmk.array("raw", (RAW_WORDS,), "uint32")
    raw0 = raw.word_offset(0)
    final = {}

    def body(proc):
        for r, per_proc in enumerate(rounds):
            wrows, value, (g0, g1), scatters, gathers = per_proc[proc.id]
            if wrows:
                ridx = np.asarray(wrows, dtype=np.int64)
                block = np.full((len(wrows), COLS), value, np.uint32)
                block += ridx[:, None].astype(np.uint32)
                arr.scatter_rows(proc, ridx, block)
            for starts, nwords, seed in scatters:
                vals = np.random.default_rng(seed).integers(
                    1, 2**32, (len(starts), nwords), dtype=np.uint32
                )
                proc.write_scatter(raw0 + np.asarray(starts), vals)
            proc.barrier(r)
            arr.read_rows(proc, g0, g1)
            garow = np.arange(g0, g1, dtype=np.int64)
            arr.gather_rows(proc, garow, 0, min(8, COLS))
            for starts, nwords, _seed in gathers:
                proc.read_gather(raw0 + np.asarray(starts), nwords)
        got = arr.read_rows(proc, 0, ROWS)
        got_raw = raw.read(proc, 0, RAW_WORDS)
        if proc.id == 0:
            final["mem"] = np.concatenate((got.reshape(-1), got_raw))
        proc.barrier(999)
        return float(got.astype(np.float64).sum()) + float(
            got_raw.astype(np.float64).sum()
        )

    res = tmk.run(body)
    return res, final["mem"]


def _assert_bulk_matches_scalar(nprocs, rounds, **cfg_kwargs):
    bulk, mem_bulk = _run_rows(nprocs, rounds, "bulk", **cfg_kwargs)
    scalar, mem_scalar = _run_rows(nprocs, rounds, "scalar", **cfg_kwargs)
    assert np.array_equal(mem_bulk, mem_scalar)
    assert bulk.checksum == scalar.checksum
    assert bulk.time_us == scalar.time_us
    assert dataclasses.asdict(bulk.stats) == dataclasses.asdict(
        scalar.stats
    )
    return mem_bulk


@given(
    row_programs(),
    st.sampled_from(["tm-lrc", "hlrc", "erc", "swi"]),
    st.sampled_from(UNIT_SHAPES),
)
@settings(max_examples=60, deadline=None)
def test_random_gather_scatter_bulk_matches_scalar(program, protocol, unit):
    """The differential gate on random programs: a bulk-mode run must
    match the scalar range-decomposed run in final memory, checksum,
    simulated time, and every protocol counter."""
    nprocs, rounds = program
    unit_pages, dynamic = unit
    _assert_bulk_matches_scalar(
        nprocs, rounds, protocol=protocol, unit_pages=unit_pages,
        dynamic=dynamic,
    )


def test_overlapping_ranges_take_the_reference_loop(monkeypatch):
    """Rows of one scatter that overlap (or repeat) must land as the
    sequential loop of range writes leaves them -- the later row wins --
    without relying on the order NumPy picks for repeated indices in one
    advanced assignment: such a scatter must never reach
    ``AddressSpace.scatter``.  Likewise an overlapping gather over
    freshly fetched words must credit each word once."""
    real_scatter = AddressSpace.scatter

    def disjoint_scatter(self, starts, values):
        gaps = np.diff(np.sort(starts))
        assert gaps.size == 0 or gaps.min() >= values.shape[1]
        real_scatter(self, starts, values)

    monkeypatch.setattr(AddressSpace, "scatter", disjoint_scatter)
    starts = [40, 44, 40, 47]
    # Proc 1 first faults the unit in with a one-word read (leaving the
    # other fetched words pending), then gathers overlapping ranges.
    gathers = [([300], 1, 0), (starts, 8, 0)]
    rounds = [
        {0: ([], 1, (0, 4), [(starts, 8, 7)], []),
         1: ([], 1, (0, 4), [], gathers)},
    ]
    mem = _assert_bulk_matches_scalar(2, rounds)
    vals = np.random.default_rng(7).integers(1, 2**32, (4, 8), dtype=np.uint32)
    want = np.zeros(RAW_WORDS, dtype=np.uint32)
    for start, row in zip(starts, vals, strict=True):
        want[start : start + 8] = row
    assert np.array_equal(mem[ROWS * COLS :], want)
