"""Scenario schema validation (`repro.serve.scenario`).

Every rejection must name the offending YAML path — operators fix
scenarios from the error message alone, so the path is the contract.
"""

from __future__ import annotations

import pytest

from repro.serve.scenario import (
    ADMISSION_POLICIES,
    SERVE_ENGINES,
    LoadShape,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
)


def base_raw(**overrides) -> dict:
    raw = {
        "name": "t",
        "seed": 1,
        "topology": {"family": "hypercube", "size": 3},
        "populations": [
            {
                "name": "p",
                "users": {"mean": 10},
                "rate_per_user": 0.01,
            }
        ],
    }
    raw.update(overrides)
    return raw


def rejects(raw, path_fragment: str):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(raw)
    assert path_fragment in str(exc.value), str(exc.value)
    return str(exc.value)


# ----------------------------------------------------------------------
# Errors name the offending YAML path (the ISSUE's three named cases)
# ----------------------------------------------------------------------
def test_unknown_field_named():
    raw = base_raw()
    raw["populations"][0]["ratee_per_user"] = 0.01
    msg = rejects(raw, "scenario.populations[0]")
    assert "ratee_per_user" in msg
    assert "rate_per_user" in msg  # the expected-fields hint


def test_unknown_top_level_field_named():
    msg = rejects(base_raw(typo_field=1), "scenario")
    assert "typo_field" in msg


def test_bad_distribution_named():
    raw = base_raw()
    raw["populations"][0]["users"] = {"mean": 10, "distribution": "zipf"}
    msg = rejects(raw, "scenario.populations[0].users.distribution")
    assert "zipf" in msg


def test_negative_rate_named():
    raw = base_raw()
    raw["populations"][0]["rate_per_user"] = -0.5
    rejects(raw, "scenario.populations[0].rate_per_user")


def test_zero_rate_rejected_strictly():
    raw = base_raw()
    raw["populations"][0]["rate_per_user"] = 0
    rejects(raw, "scenario.populations[0].rate_per_user")


# ----------------------------------------------------------------------
# More rejections
# ----------------------------------------------------------------------
def test_poisson_rejects_explicit_variance():
    raw = base_raw()
    raw["populations"][0]["users"] = {
        "mean": 10, "distribution": "poisson", "variance": 4,
    }
    rejects(raw, "users.variance")


def test_missing_required_fields_named():
    rejects({"seed": 1}, "scenario.name")
    raw = base_raw()
    del raw["populations"][0]["users"]
    rejects(raw, "populations[0].users")
    raw = base_raw(topology={"family": "mesh"})
    rejects(raw, "scenario.topology.size")


def test_duplicate_population_names_rejected():
    raw = base_raw()
    raw["populations"] = [raw["populations"][0], dict(raw["populations"][0])]
    rejects(raw, "populations[1].name")


def test_bad_engine_and_policy_rejected():
    rejects(base_raw(engine="sharded"), "scenario.engine")
    rejects(base_raw(engine="warp"), "scenario.engine")
    rejects(base_raw(engine="auto"), "scenario.engine")
    raw = base_raw(service={"admission": {"policy": "lifo"}})
    rejects(raw, "service.admission.policy")


def test_pattern_family_mismatch_named():
    raw = base_raw(topology={"family": "mesh", "size": 3})
    raw["populations"][0]["pattern"] = "complement"
    msg = rejects(raw, "populations[0].pattern")
    assert "hypercube" in msg


def test_bursty_burst_longer_than_period_rejected():
    raw = base_raw()
    raw["populations"][0]["load_shape"] = {
        "kind": "bursty", "period": 10, "burst_cycles": 20,
    }
    rejects(raw, "load_shape.burst_cycles")


def test_diurnal_amplitude_capped():
    raw = base_raw()
    raw["populations"][0]["load_shape"] = {
        "kind": "diurnal", "amplitude": 1.5,
    }
    rejects(raw, "load_shape.amplitude")


def test_load_shape_kind_specific_fields_enforced():
    raw = base_raw()
    raw["populations"][0]["load_shape"] = {
        "kind": "diurnal", "multiplier": 2,
    }
    rejects(raw, "load_shape")


# ----------------------------------------------------------------------
# Acceptance
# ----------------------------------------------------------------------
def test_defaults_fill_in():
    s = parse_scenario(base_raw())
    assert isinstance(s, Scenario)
    assert s.engine == "vector" and s.engine in SERVE_ENGINES
    assert s.algorithm == "adaptive"
    assert s.service.admission.policy in ADMISSION_POLICIES
    assert s.populations[0].qos == "default"
    assert s.populations[0].users.distribution == "poisson"
    assert "hypercube" in s.describe()


@pytest.mark.parametrize(
    "family,size",
    [("hypercube", "3"), ("mesh", "4"), ("torus", "3x3"),
     ("shuffle-exchange", "3")],
)
def test_every_family_builds(family, size):
    s = parse_scenario(
        base_raw(topology={"family": family, "size": size})
    )
    topo = s.build_topology()
    alg = s.build_algorithm(topo)
    assert alg.topology is topo


def test_load_shape_multipliers():
    diurnal = LoadShape(kind="diurnal", period=100, amplitude=0.5)
    assert diurnal.multiplier_at(0) == pytest.approx(1.0)
    assert diurnal.multiplier_at(25) == pytest.approx(1.5)
    assert diurnal.multiplier_at(75) == pytest.approx(0.5)
    bursty = LoadShape(kind="bursty", period=100, multiplier=4.0,
                       burst_cycles=10)
    assert bursty.multiplier_at(5) == 4.0
    assert bursty.multiplier_at(50) == 1.0
    assert LoadShape().multiplier_at(123) == 1.0


def test_yaml_text_and_mapping_agree():
    yaml = pytest.importorskip("yaml")  # noqa: F841 (gate on PyYAML)
    text = """
name: t
topology: {family: hypercube, size: 3}
populations:
  - name: p
    users: {mean: 10}
    rate_per_user: 0.01
"""
    assert load_scenario(text) == load_scenario(base_raw(seed=12345))


def test_yaml_path_not_found():
    pytest.importorskip("yaml")
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario("no/such/scenario.yaml")


def test_example_scenarios_validate():
    pytest.importorskip("yaml")
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "examples" / "scenarios"
    found = sorted(root.glob("*.yaml"))
    assert found, "examples/scenarios/ should ship scenarios"
    for path in found:
        s = load_scenario(path)
        assert s.engine in SERVE_ENGINES
