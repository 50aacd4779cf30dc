"""Small-scope model checker: exhaustive exploration, the RC oracle,
the DRF self-check, witnesses, and the seeded-bug mutation gate.

The expensive litmus programs (fs-diff-merge, migratory) are covered by
the committed state-count baseline and the CI gate; the tests here keep
to the cheap programs so the tier-1 suite stays fast, plus fs-diff-merge
under the two eager-diff protocols, whose flush/push delivery into a
live twin only that program's concurrent writers of one unit reach.
"""

from __future__ import annotations

import json

import pytest

from repro.analyze.modelcheck import (
    CHECKED_PROTOCOLS,
    LITMUS_TESTS,
    Litmus,
    LitmusError,
    broken_protocol,
    explore,
    load_baseline,
    mutation_gate,
    replay,
    replay_witness,
    run_modelcheck,
)
from repro.protocols import get_protocol

CHEAP_LITMUS = ("mp", "corr")


@pytest.fixture(scope="module")
def explored():
    """Every cheap litmus exhaustively explored under every protocol."""
    return {
        (name, proto): explore(LITMUS_TESTS[name], get_protocol(proto))
        for name in CHEAP_LITMUS
        for proto in CHECKED_PROTOCOLS
    }


@pytest.mark.parametrize("proto", CHECKED_PROTOCOLS)
@pytest.mark.parametrize("name", CHEAP_LITMUS)
def test_exhaustive_exploration_finds_no_violation(explored, name, proto):
    res = explored[(name, proto)]
    assert res.ok, res.violation
    assert res.states > res.terminals >= 1
    assert res.outcomes


@pytest.mark.parametrize("proto", CHECKED_PROTOCOLS)
def test_mp_admits_only_the_message_received_outcome(explored, proto):
    # Both the flag and the data written before the barrier must be
    # visible after it, in every interleaving.
    assert explored[("mp", proto)].outcomes == ((1, 1),)


@pytest.mark.parametrize("proto", CHECKED_PROTOCOLS)
def test_corr_reads_agree_within_a_critical_section(explored, proto):
    outcomes = set(explored[("corr", proto)].outcomes)
    # Reader before writer sees (0, 0); after, (2, 2).  A split pair
    # would be a coherence violation the oracle must have caught.
    assert outcomes == {(0, 0), (2, 2)}


def test_committed_baseline_matches_fresh_exploration(explored):
    known = load_baseline()
    for (name, proto), res in explored.items():
        assert known[f"{name}/{proto}"] == res.baseline_entry()


@pytest.mark.parametrize("proto", ["erc", "hlrc"])
def test_fs_diff_merge_matches_committed_state_counts(proto):
    res = explore(LITMUS_TESTS["fs-diff-merge"], get_protocol(proto))
    assert res.ok, res.violation
    assert load_baseline()[f"fs-diff-merge/{proto}"] == res.baseline_entry()


@pytest.mark.parametrize(
    "first,second",
    [
        (("write", 0, 1), ("write", 0, 2)),
        (("write", 0, 1), ("read", 0, "r0")),
        (("read", 0, "r0"), ("write", 0, 1)),
        (("rmw", 0, 1, "r0"), ("read", 0, "r1")),
    ],
    ids=["write-write", "write-read", "read-write", "rmw-read"],
)
def test_racy_litmus_rejected_as_litmus_error(first, second):
    racy = Litmus(
        name="racy",
        description="two unsynchronized accesses of one word",
        programs=((first,), (second,)),
        words=(0,),
    )
    # The message names the race the happens-before check found.
    with pytest.raises(LitmusError, match=r"racy: word 0 .* concurrent"):
        explore(racy, get_protocol("tm-lrc"))


#: Data-race-free programs the race check must accept.  Each ends at a
#: barrier so every processor's final view is defined.
DRF_LITMUS = (
    Litmus(
        name="lock-handoff",
        description="a write and a read in critical sections of one lock",
        programs=(
            (("acquire", 0), ("write", 0, 1), ("release", 0), ("barrier", 9)),
            (("acquire", 0), ("read", 0, "r0"), ("release", 0), ("barrier", 9)),
        ),
        words=(0,),
    ),
    Litmus(
        name="barrier-ordered",
        description="a write before a barrier, a read after it",
        programs=(
            (("write", 0, 1), ("barrier", 0)),
            (("barrier", 0), ("read", 0, "r0")),
        ),
        words=(0,),
    ),
    Litmus(
        name="false-sharing",
        description="two writers of different words of one unit",
        programs=(
            (("write", 0, 1), ("barrier", 0)),
            (("write", 1, 2), ("barrier", 0)),
        ),
        words=(0, 1),
    ),
)


@pytest.mark.parametrize("litmus", DRF_LITMUS, ids=lambda lit: lit.name)
def test_drf_litmus_explores_without_a_race(litmus):
    res = explore(litmus, get_protocol("tm-lrc"))
    assert res.ok, res.violation
    assert res.terminals >= 1


def test_blocked_acquire_is_ordered_at_its_grant():
    # P1's acquire blocks behind P0's critical section and is granted
    # at P0's release; the read after it is then ordered, not racy.
    handoff = DRF_LITMUS[0]
    info = get_protocol("tm-lrc")
    assert replay(handoff, info, (0, 1)).system.cursors[1].blocked
    rep = replay(handoff, info, (0, 1, 0, 0, 1))
    assert rep.violation is None
    assert rep.system.cursors[1].regs == {"r0": 1}


def test_deadlock_is_reported_with_its_schedule():
    # P0 holds the lock at the barrier; P1 blocks on the lock forever.
    stuck = Litmus(
        name="deadlock",
        description="a barrier reached while holding a lock",
        programs=((("acquire", 0), ("barrier", 0)),) * 2,
        words=(0,),
    )
    res = explore(stuck, get_protocol("tm-lrc"))
    assert res.violation is not None
    assert res.violation["kind"] == "deadlock"
    assert res.schedule == (0, 0, 1)
    assert [s["proc"] for s in res.witness_steps] == [0, 0, 1]


def test_schedule_picking_a_blocked_processor_is_invalid():
    with pytest.raises(LitmusError, match="not enabled"):
        replay(LITMUS_TESTS["mp"], get_protocol("tm-lrc"), (0,) * 10)


def test_mutation_gate_catches_the_skipped_flush():
    doc = mutation_gate()
    assert doc["protocol"] == "hlrc-broken-flush"
    assert doc["litmus"] == "fs-diff-merge"
    v = doc["violation"]
    assert v["expected"] != v["actual"]
    assert doc["schedule"], "witness must carry a replayable schedule"
    # The witness document is self-contained: JSON-serializable with an
    # embedded Chrome trace, and its schedule replays to the recorded
    # violation.
    doc = json.loads(json.dumps(doc))
    assert doc["chrome_trace"]["traceEvents"]
    rep = replay_witness(doc, info=broken_protocol())
    assert rep.violation == doc["violation"]


def test_run_modelcheck_gates_on_the_baseline(tmp_path, capsys):
    base = tmp_path / "counts.json"
    args = dict(
        litmus_names=["mp"],
        protocols=["tm-lrc"],
        with_mutation_gate=False,
        baseline=base,
    )
    # No committed entry: the gate fails closed.
    assert run_modelcheck(**args) == 1
    assert "no committed baseline entry" in capsys.readouterr().out
    # --update-baseline records it; the next run is green.
    assert run_modelcheck(update_baseline=True, **args) == 0
    assert base.exists()
    assert run_modelcheck(**args) == 0
