"""Exactness of the shallow serialization behind every cell key.

``SimConfig.to_dict`` and ``CaseResult.to_json_dict`` read their fields
directly instead of going through ``dataclasses.asdict``.  That is exact
only while every field is a scalar (``asdict`` deep-copies, and a deep
copy of an int/float/bool/str is the value itself).  These tests keep
an ``asdict``-based reference and require the two forms to agree --
value, type and key order -- over every configuration the experiments
and the golden gate use, plus a property over ``SimConfig.replace``; a
guard fails the moment a non-scalar field appears.
"""

import dataclasses
import json
import pathlib
import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments import cells_of, served
from repro.bench.golden import (
    GOLDEN_DIR,
    GOLDEN_FIELDS,
    SMALL_DATASETS,
    golden_cells,
)
from repro.bench.harness import CaseResult, config_for, run_case
from repro.faults.plan import FaultPlan
from repro.protocols import protocol_names
from repro.sim.config import DEFAULT_PROTOCOL, SimConfig

SCALARS = (int, float, bool, str)


def reference_to_dict(config: SimConfig) -> dict:
    """``SimConfig.to_dict`` as it was written with ``asdict``."""
    data = dataclasses.asdict(config)
    if data["protocol"] == DEFAULT_PROTOCOL:
        del data["protocol"]
    if data["access_mode"] == "bulk":
        del data["access_mode"]
    return data


def reference_case_json(case: CaseResult) -> dict:
    """``CaseResult.to_json_dict`` as it was written with ``asdict``."""
    from repro.stats.signature import normalized_to_json

    data = dataclasses.asdict(case)
    data["signature"] = normalized_to_json(case.signature)
    return data


def typed_items(data: dict) -> list:
    """Key order, values and exact value types of one dict."""
    return [(k, type(v), v) for k, v in data.items()]


def assert_config_exact(config: SimConfig) -> None:
    want = reference_to_dict(config)
    assert typed_items(config.to_dict()) == typed_items(want)
    assert config.canonical_json() == json.dumps(
        want, sort_keys=True, separators=(",", ":")
    )


def assert_case_exact(case: CaseResult) -> None:
    want = reference_case_json(case)
    got = case.to_json_dict()
    assert typed_items(got) == typed_items(want)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_every_experiment_config_matches_the_reference():
    cells = cells_of(served())
    assert len(cells) == 254
    for cell in cells:
        assert_config_exact(config_for(cell.label, **cell.kwargs))


def test_golden_matrix_configs_match_the_reference():
    cells = [
        cell
        for mode in ("bulk", "scalar")
        for cell in golden_cells(None, protocol_names(), mode, full=True)
    ]
    assert {c.kwargs.get("protocol", DEFAULT_PROTOCOL) for c in cells} == set(
        protocol_names()
    )
    for cell in cells:
        assert_config_exact(config_for(cell.label, **cell.kwargs))


def test_fault_plan_config_matches_the_reference():
    plan = FaultPlan.uniform(seed=7, drop_rate=0.05, jitter_us=3.5)
    assert_config_exact(config_for("Dyn", fault_plan=plan.canonical()))


@settings(max_examples=200, deadline=None)
@given(
    nprocs=st.integers(1, 16),
    unit_pages=st.integers(1, 8),
    dynamic=st.booleans(),
    protocol=st.sampled_from(protocol_names()),
    access_mode=st.sampled_from(["bulk", "scalar"]),
    max_group_pages=st.integers(1, 16),
    msg_latency_us=st.floats(0.0, 1e4, allow_nan=False),
    byte_time_us=st.floats(0.0, 1.0, allow_nan=False),
    trace=st.booleans(),
    gc_threshold=st.integers(0, 1 << 20),
    parallel_fetch=st.booleans(),
)
def test_replace_property_matches_the_reference(**changes):
    assert_config_exact(SimConfig().replace(**changes))


def _field_types(cls: type) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def test_simconfig_fields_are_scalar():
    # A container field would make the shallow to_dict share (and the
    # key stop equalling asdict): give it an explicit encoding first.
    for name, hint in _field_types(SimConfig).items():
        assert hint in SCALARS, f"SimConfig.{name}: {hint}"
        assert type(getattr(SimConfig(), name)) is hint, name


def test_caseresult_fields_are_scalar_except_signature():
    for name, hint in _field_types(CaseResult).items():
        if name == "signature":
            continue
        assert hint in SCALARS or hint == typing.Optional[float], (
            f"CaseResult.{name}: {hint}"
        )


def _golden_files() -> list:
    return sorted(pathlib.Path(GOLDEN_DIR).rglob("*.json"))


def test_case_json_matches_the_reference_for_every_committed_golden():
    checked = 0
    for path in _golden_files():
        if path.name == "micro.json":
            continue
        app = path.stem
        protocol = (
            DEFAULT_PROTOCOL if path.parent == pathlib.Path(GOLDEN_DIR)
            else path.parent.name
        )
        for dataset, labels in json.loads(path.read_text()).items():
            for label, snapshot in labels.items():
                case = CaseResult(
                    app=app, dataset=dataset, label=label,
                    signature={1: (0.75, 0.125), 3: (0.0, 0.125)},
                    protocol=protocol,
                    **{f: snapshot[f] for f in GOLDEN_FIELDS},
                )
                assert_case_exact(case)
                checked += 1
    # every app, under every protocol, at least its small dataset
    assert checked >= len(SMALL_DATASETS) * len(protocol_names()) * 4


def test_case_json_matches_the_reference_for_a_real_run():
    case = run_case("Jacobi", SMALL_DATASETS["Jacobi"], "Dyn")
    assert case.signature  # a real, non-empty signature
    assert_case_exact(case)
