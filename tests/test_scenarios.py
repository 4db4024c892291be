import json

import pytest

from trendmax import ScenarioError, parse_scenarios

HWE = {"id": "h", "model": "null", "p": 0.3, "r": 250, "s": 250}
MIX = {"id": "m", "model": "null", "pA": 0.1, "pB": 0.4, "R1": 30, "S1": 150, "R2": 20, "S2": 100}


def parse(rec: dict):
    return parse_scenarios(json.dumps(rec))[0]


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_correction_must_be_json_boolean(value):
    with pytest.raises(ScenarioError, match="'correction'"):
        parse({**HWE, "correction": value})


@pytest.mark.parametrize("value", [False, True])
def test_correction_boolean_accepted(value):
    assert parse({**HWE, "correction": value}).correction is value
    assert parse(HWE).correction is True


@pytest.mark.parametrize("base,key", [(HWE, "r"), (HWE, "s"), (MIX, "R1"), (MIX, "R2"),
                                      (MIX, "S1"), (MIX, "S2"), (MIX, "r"), (MIX, "s")])
@pytest.mark.parametrize("value", [2.7, "250", True, None])
def test_counts_must_be_integral(base, key, value):
    with pytest.raises(ScenarioError, match=f"'{key}'"):
        parse({**base, key: value})


def test_integral_float_counts_accepted():
    sc = parse({**MIX, "R1": 30.0, "r": 50.0})
    assert sc.n_cases == 50 and isinstance(sc.n_cases, int)
    assert sc.population.cases_a == 30 and isinstance(sc.population.cases_a, int)


@pytest.mark.parametrize("rec", [HWE, MIX, {**HWE, "model": "add", "f0": 0.01, "f2": 0.02,
                                            "correction": False, "sidedness": "one"}])
def test_describe_round_trips(rec):
    sc = parse(rec)
    assert parse(sc.describe()) == sc
