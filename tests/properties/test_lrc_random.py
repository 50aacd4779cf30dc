"""Random-program coherence oracle.

Generates random barrier-phased shared-memory programs (each processor
writes random regions of its own interleaved word partition -- plenty of
write-write false sharing, no data races) and checks every read against a
sequentially-consistent oracle:

* during a round, a processor sees the post-barrier state plus its own
  writes, and must NOT see other processors' in-flight writes (LRC);
* after a barrier, everyone sees every write.

Runs across all consistency configurations, which is the strongest form
of the coherence-invariance requirement.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SimConfig, TreadMarks

NWORDS = 4 * 1024  # 4 pages
STRIPE = 8  # word i belongs to proc (i // STRIPE) % nprocs


def owner_of(word, nprocs):
    return (word // STRIPE) % nprocs


@st.composite
def programs(draw):
    nprocs = draw(st.integers(2, 4))
    nrounds = draw(st.integers(1, 4))
    rounds = []
    for _ in range(nrounds):
        writes = {}
        for p in range(nprocs):
            ops = []
            for _ in range(draw(st.integers(0, 3))):
                start = draw(st.integers(0, NWORDS - STRIPE))
                # Snap into p's stripe so writes never race.
                stripe_base = (start // STRIPE) * STRIPE
                k = stripe_base // STRIPE
                if k % nprocs != p:
                    stripe_base += ((p - k) % nprocs) * STRIPE
                if stripe_base + STRIPE > NWORDS:
                    continue
                length = draw(st.integers(1, STRIPE))
                value = draw(st.integers(1, 2**31))
                ops.append((stripe_base, length, value))
            writes[p] = ops
        reads = {
            p: [
                draw(st.integers(0, NWORDS - 64))
                for _ in range(draw(st.integers(0, 2)))
            ]
            for p in range(nprocs)
        }
        rounds.append((writes, reads))
    return nprocs, rounds


CONFIGS = [
    dict(unit_pages=1),
    dict(unit_pages=2),
    dict(unit_pages=4),
    dict(dynamic=True),
]


@given(programs(), st.sampled_from(CONFIGS))
@settings(max_examples=25, deadline=None)
def test_random_program_matches_oracle(program, cfg_kwargs):
    nprocs, rounds = program
    tmk = TreadMarks(
        SimConfig(nprocs=nprocs, **cfg_kwargs), heap_bytes=NWORDS * 4
    )
    arr = tmk.array("a", (NWORDS,), "uint32")

    # Oracle: committed state after each barrier.
    committed = [np.zeros(NWORDS, dtype=np.uint32)]
    for writes, _ in rounds:
        nxt = committed[-1].copy()
        for p, ops in writes.items():
            for start, length, value in ops:
                nxt[start : start + length] = value
        committed.append(nxt)

    failures = []

    def body(proc):
        p = proc.id
        for r, (writes, reads) in enumerate(rounds):
            view = committed[r].copy()
            for start, length, value in writes[p]:
                arr.write(
                    proc, start, np.full(length, value, np.uint32)
                )
                view[start : start + length] = value
            for start in reads[p]:
                got = arr.read(proc, start, 64)
                expect = np.where(
                    np.array(
                        [owner_of(w, nprocs) == p for w in range(start, start + 64)]
                    ),
                    view[start : start + 64],
                    committed[r][start : start + 64],
                )
                if not np.array_equal(got, expect):
                    failures.append((p, r, start))
            proc.barrier(r)
        # Final check: everyone sees the fully committed state.
        got = arr.read(proc, 0, NWORDS)
        if not np.array_equal(got, committed[-1]):
            failures.append((p, "final", -1))
        proc.barrier(999)

    tmk.run(body)
    assert not failures, failures


PROTOCOLS = ("tm-lrc", "hlrc", "erc", "swi")


@given(programs())
@settings(max_examples=10, deadline=None)
def test_final_state_is_protocol_invariant(program):
    """The zoo-wide oracle: a random race-free barrier-phased program
    leaves bit-identical final memory under every consistency protocol
    (the in-flight visibility rules differ -- eager protocols may
    legitimately publish sooner than LRC -- but the post-barrier state
    may not)."""
    nprocs, rounds = program
    finals = {}
    for protocol in PROTOCOLS:
        tmk = TreadMarks(
            SimConfig(nprocs=nprocs, protocol=protocol),
            heap_bytes=NWORDS * 4,
        )
        arr = tmk.array("a", (NWORDS,), "uint32")
        holder = {}

        def body(proc):
            for r, (writes, _) in enumerate(rounds):
                for start, length, value in writes[proc.id]:
                    arr.write(
                        proc, start, np.full(length, value, np.uint32)
                    )
                proc.barrier(r)
            got = arr.read(proc, 0, NWORDS)
            if proc.id == 0:
                holder["final"] = got.copy()
            proc.barrier(999)
            return float(got.sum())

        res = tmk.run(body)
        finals[protocol] = (res.checksum, holder["final"])

    # Oracle: apply all writes in any order (disjoint stripes).
    expect = np.zeros(NWORDS, dtype=np.uint32)
    for writes, _ in rounds:
        for p, ops in writes.items():
            for start, length, value in ops:
                expect[start : start + length] = value

    for protocol, (checksum, final) in finals.items():
        assert checksum == finals["tm-lrc"][0], protocol
        assert np.array_equal(final, expect), protocol


@given(st.integers(2, 4), st.integers(1, 6), st.sampled_from(CONFIGS))
@settings(max_examples=15, deadline=None)
def test_lock_counter_never_loses_updates(nprocs, increments, cfg_kwargs):
    tmk = TreadMarks(SimConfig(nprocs=nprocs, **cfg_kwargs), heap_bytes=1 << 14)
    arr = tmk.array("ctr", (4,), "uint32")

    def body(proc):
        for _ in range(increments):
            proc.acquire(1)
            v = int(arr.read(proc, 0, 1)[0])
            arr.write(proc, 0, np.array([v + 1], np.uint32))
            proc.release(1)
        proc.barrier()
        return float(arr.read(proc, 0, 1)[0])

    res = tmk.run(body)
    assert res.checksum == nprocs * increments
