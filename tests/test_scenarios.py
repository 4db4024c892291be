import json
import re
from pathlib import Path

import pytest

from trendmax import FrequencyOutOfRange, Scenario, ScenarioError, Stratum, parse_scenarios
from trendmax.scenarios import distinct_nulls

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

HWE = {"id": "h", "model": "null", "p": 0.3, "r": 250, "s": 250}
MIX = {"id": "m", "model": "null", "pA": 0.1, "pB": 0.4, "R1": 30, "S1": 150, "R2": 20, "S2": 100}
ADD = {**HWE, "model": "add", "f0": 0.01, "f2": 0.02}
CUSTOM = {**HWE, "model": "custom", "f0": 0.01, "f1": 0.015, "f2": 0.02}
PACKED = [rec for path in sorted(SCENARIOS.glob("*.json"))
          for rec in json.loads(path.read_text(encoding="utf-8"))]


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
    assert sc.population[0].cases == 30 and isinstance(sc.population[0].cases, int)


@pytest.mark.parametrize("base,key", [(HWE, "p"), (MIX, "pA"), (MIX, "pB"), (ADD, "f0"), (ADD, "f2"),
                                      (ADD, "f1"), (CUSTOM, "f0"), (CUSTOM, "f1"), (CUSTOM, "f2")])
@pytest.mark.parametrize("value", ["0.3", "abc", True, None, [0.3]])
def test_numbers_must_be_json_numbers(base, key, value):
    with pytest.raises(ScenarioError, match=f"'{key}' must be a number"):
        parse({**base, key: value})


@pytest.mark.parametrize("key", ["id", "model", "sidedness"])
@pytest.mark.parametrize("value", [None, 1, True])
def test_names_must_be_strings(key, value):
    with pytest.raises(ScenarioError, match=f"'{key}' must be a string"):
        parse({**HWE, key: value})


@pytest.mark.parametrize("rec, message", [
    ({**HWE, "p": 0.0}, "allele frequency 0.0 not in (0, 1)"),
    ({**MIX, "pB": 1.0}, "allele frequency 1.0 not in (0, 1)"),
    ({**HWE, "r": 0}, "counts must be positive integers, got 0"),
    ({**ADD, "f0": 0.3, "f2": 0.2}, "f2 (0.2) must not be smaller than f0 (0.3)"),
    ({**CUSTOM, "f1": 0.03}, "penetrances must satisfy f0 <= f1 <= f2"),
    ({**ADD, "model": "bogus"}, "unknown genetic model kind 'bogus'"),
    ({**ADD, "model": "rec", "f1": 0.02}, "recessive model: f1 must be 0.01 from f0 and f2, got 0.02"),
    ({**ADD, "model": "dom", "f1": 0.015}, "dominant model: f1 must be 0.02 from f0 and f2, got 0.015"),
    ({**MIX, "r": 60}, "mixture case split 30+20 does not sum to r=60"),
    ({**MIX, "s": 200}, "mixture control split 150+100 does not sum to s=200"),
    ({**HWE, "s": 1e20}, "counts must not exceed 9223372036854775807, got 100000000000000000000"),
    ([HWE], "expected an object, got list"),
    ("h", "expected an object, got str"),
    ({**HWE, "q": 0.3, "R": 5}, "unknown keys ['R', 'q']"),
    ({"id": "h", "r": 250, "s": 250}, "missing required key 'p'"),
    ({**MIX, "p": 0.3}, "give either p or the mixture keys, not both"),
    ({**HWE, "sidedness": "both"}, "sidedness must be 'one' or 'two', got 'both'"),
    ({**ADD, "f0": 0.0}, "penetrance 0.0 must lie strictly in (0, 1)"),
])
def test_invalid_values_name_the_record(rec, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenarios(json.dumps([HWE, rec]), source="pack.json")
    assert str(info.value).startswith("pack.json[1]: ")
    assert message in str(info.value)


@pytest.mark.parametrize("text, message", [
    ("[]", "pack.json: no scenarios found"),
    ("", "pack.json: not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ('[{"p": 0.3,}]', "pack.json: not valid JSON: Expecting property name enclosed in double quotes: "
                      "line 1 column 12 (char 11)"),
])
def test_a_pack_that_is_not_json_or_holds_no_scenario_is_rejected(text, message):
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$") as info:
        parse_scenarios(text, source="pack.json")
    assert info.type is ScenarioError


def test_mixture_totals_are_optional_and_derived():
    sc = parse({**MIX, "r": 50})
    assert (sc.n_cases, sc.n_controls) == (50, 250)
    assert sc.population == (Stratum(0.1, 30, 150), Stratum(0.4, 20, 100))


@pytest.mark.parametrize("rec", [HWE, MIX, {**ADD, "correction": False, "sidedness": "one"}, *PACKED])
def test_describe_round_trips(rec):
    sc = parse(rec)
    assert parse(sc.describe()) == sc


def test_directly_built_two_stratum_scenario_round_trips():
    sc = Scenario((Stratum(0.1, 30, 150), Stratum(0.4, 20, 100)), None, correction=False, label="m")
    assert (sc.n_cases, sc.n_controls) == (50, 250)
    assert parse(sc.describe()) == sc
    assert sc.describe() == {**MIX, "r": 50, "s": 250, "correction": False, "sidedness": "two"}


@pytest.mark.parametrize("population, error", [
    ((), ScenarioError),
    ((Stratum(0.1, 30, 150),) * 3, ScenarioError),
    ((Stratum(0.1, 30.0, 150),), ScenarioError),
    ((Stratum(0.1, 30, True),), ScenarioError),
    ((Stratum(0.1, 30, 150), Stratum(0.4, 20, 0)), ScenarioError),
    ((Stratum(0.0, 30, 150),), FrequencyOutOfRange),
    ((Stratum(0.1, 30, 150), Stratum(1.0, 20, 100)), FrequencyOutOfRange),
    ((Stratum(float("nan"), 30, 150),), FrequencyOutOfRange),
])
def test_directly_built_scenario_checks_its_strata(population, error):
    with pytest.raises(error):
        Scenario(population, None)


def test_distinct_nulls_keep_first_seen_order_and_the_first_label():
    records = [{**ADD, "id": "a1"}, {**MIX, "id": "m1"}, {**HWE, "id": "h1"}, {**CUSTOM, "id": "c1"},
               {**MIX, "id": "m2"}, {**HWE, "id": "h2", "sidedness": "one"}]
    pack = parse_scenarios(json.dumps(records))
    nulls = distinct_nulls(pack)
    # ADD, HWE and CUSTOM share one null; the one-sided HWE record does not
    assert list(nulls) == [pack[0].key(), pack[1].key(), pack[5].key()]
    assert [null.label for null in nulls.values()] == ["a1:null", "m1", "h2"]
    assert all(null.is_null and null.key() == key for key, null in nulls.items())
    assert distinct_nulls([]) == {}
