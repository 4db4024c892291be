import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trendmax import (
    FrequencyOutOfRange,
    InputError,
    DegeneratePrevalence,
    OrderViolation,
    PenetranceModel,
    case_control_probs,
    hwe_genotype_freqs,
    optimal_score,
    penetrances_for_model,
    prevalence,
)
from trendmax.population import DOMINANCE

freq = st.floats(0.01, 0.99, allow_nan=False)
pen = st.floats(0.001, 0.999, allow_nan=False)


@pytest.mark.parametrize(
    "p,expected",
    [(0.5, (0.25, 0.50, 0.25)), (0.1, (0.81, 0.18, 0.01)), (0.3, (0.49, 0.42, 0.09))],
)
def test_hwe_freqs(p, expected):
    g = hwe_genotype_freqs(p)
    assert np.allclose(g, expected)


def test_hwe_rejects_boundary():
    for p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(FrequencyOutOfRange):
            hwe_genotype_freqs(p)


@given(freq)
def test_hwe_identity(p):
    g0, g1, g2 = hwe_genotype_freqs(p)
    assert abs(g0 + g1 + g2 - 1) < 1e-12
    assert abs(g1**2 - 4 * g0 * g2) < 1e-12


def test_prevalence_constant_penetrance():
    f = PenetranceModel(0.01, 0.01, 0.01)
    assert prevalence(f, 0.3) == pytest.approx(0.01)


def test_prevalence_worked_values():
    f = PenetranceModel(0.01, 0.01, 0.04)
    assert prevalence(f, 0.5) == pytest.approx(0.0175)  # g = (0.25, 0.5, 0.25)
    f2 = PenetranceModel(0.01, 0.019, 0.019)
    assert prevalence(f2, 0.1) == pytest.approx(0.01171)  # g = (0.81, 0.18, 0.01)


def test_case_control_probs_worked_example():
    f = PenetranceModel(0.01, 0.01, 0.04)
    case_probs, control_probs = case_control_probs(f, 0.5)  # g = (0.25, 0.5, 0.25)
    assert np.allclose(case_probs, (1 / 7, 2 / 7, 4 / 7))
    assert sum(control_probs) == pytest.approx(1.0, abs=1e-12)


def test_null_penetrances_give_population_freqs():
    g = hwe_genotype_freqs(0.3)
    f = PenetranceModel(0.02, 0.02, 0.02)
    case_probs, control_probs = case_control_probs(f, 0.3)
    assert np.allclose(case_probs, g)
    assert np.allclose(control_probs, g)


@given(pen, pen, freq)
def test_mixture_identity(f0, f2, p):
    # D p_i + (1 - D) q_i recovers g_i for any valid model
    lo, hi = min(f0, f2), max(f0, f2)
    f = PenetranceModel(lo, (lo + hi) / 2, hi)
    case_probs, control_probs = case_control_probs(f, p)
    d = prevalence(f, p)
    for pi, qi, gi in zip(case_probs, control_probs, hwe_genotype_freqs(p)):
        assert abs(d * pi + (1 - d) * qi - gi) < 1e-12
    assert abs(sum(case_probs) - 1) < 1e-12
    assert abs(sum(control_probs) - 1) < 1e-12


@given(pen, pen, freq)
def test_monotone_penetrances_give_stochastic_dominance(f0, f2, p):
    lo, hi = min(f0, f2), max(f0, f2)
    f = PenetranceModel(lo, (lo + hi) / 2, hi)
    case_probs, control_probs = case_control_probs(f, p)
    # survival function of the case genotype dominates the control one
    for k in (1, 2):
        assert sum(case_probs[k:]) >= sum(control_probs[k:]) - 1e-12


@pytest.mark.parametrize(
    "kind,f0,f2,expected_f1",
    [("rec", 0.01, 0.04, 0.01), ("add", 0.01, 0.04, 0.025), ("dom", 0.01, 0.019, 0.019)],
)
def test_penetrances_for_model(kind, f0, f2, expected_f1):
    f = penetrances_for_model(kind, f0, f2)
    assert f.f1 == pytest.approx(expected_f1)


@pytest.mark.parametrize("f", [(0.0, 0.01, 0.02), (0.01, 0.02, 1.0), (0.01, float("nan"), 0.02), (-0.1, 0.01, 0.02)])
def test_a_penetrance_outside_the_open_unit_interval_is_an_input_error(f):
    message = f"penetrance {next(x for x in f if not 0.0 < x < 1.0)!r} must lie strictly in (0, 1)"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$") as info:
        PenetranceModel(*f)
    assert info.type is InputError


def test_a_prevalence_that_rounds_to_zero_is_degenerate():
    # the smallest subnormal penetrances give f0 g0 + f1 g1 + f2 g2 = 0.0
    f = PenetranceModel(5e-324, 5e-324, 5e-324)
    with pytest.raises(DegeneratePrevalence, match=f"^{re.escape('prevalence 0.0 not strictly in (0, 1)')}$"):
        case_control_probs(f, 0.3)


def test_a_custom_model_needs_an_explicit_f1():
    with pytest.raises(InputError, match="^custom models require an explicit f1$") as info:
        penetrances_for_model("custom", 0.01, 0.02)
    assert info.type is InputError


def test_penetrances_order_violation():
    with pytest.raises(OrderViolation):
        penetrances_for_model("add", 0.04, 0.01)
    with pytest.raises(OrderViolation):
        PenetranceModel(0.03, 0.02, 0.04)


# halving is exact down to here, so 0.5 f0 + 0.5 f2 rounds as (f0 + f2) / 2 does
NORMAL_PEN = st.floats(2.0**-1021, 1.0, exclude_max=True)


@given(NORMAL_PEN, NORMAL_PEN)
@example(2.0**-1021, 2.0**-1021)
@example(2.0**-1021, 1.0 - 2.0**-53)
@example(0.01, 0.03)
def test_the_dominance_score_gives_each_named_model_its_f1_bit_for_bit(a, b):
    f0, f2 = min(a, b), max(a, b)
    expected = {"recessive": f0, "additive": (f0 + f2) / 2.0, "dominant": f2}
    for kind, x in DOMINANCE.items():
        assert ((1.0 - x) * f0 + x * f2).hex() == expected[kind].hex(), kind
        assert penetrances_for_model(kind, f0, f2).f1.hex() == expected[kind].hex(), kind


@pytest.mark.parametrize("kind, name", [("rec", "recessive"), ("ADD", "additive"), ("dominant", "dominant")])
def test_a_named_model_rejects_an_f1_that_contradicts_it(kind, name):
    f = penetrances_for_model(kind, 0.01, 0.03)
    assert (f.kind, PenetranceModel(f.f0, f.f1, f.f2, kind=kind)) == (name, f)
    wrong = 0.02 if f.f1 != 0.02 else 0.03
    message = f"{name} model: f1 must be {f.f1!r} from f0 and f2, got {wrong!r}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        PenetranceModel(0.01, wrong, 0.03, kind=kind)
    assert PenetranceModel(0.01, wrong, 0.03).kind == "custom"  # a custom model takes any ordered f1


@pytest.mark.parametrize("kind,x", [("recessive", 0.0), ("additive", 0.5), ("dominant", 1.0)])
def test_optimal_scores(kind, x):
    assert optimal_score(kind) == x


def test_optimal_score_aliases():
    assert optimal_score("rec") == 0.0
    with pytest.raises(InputError):
        optimal_score("custom")
