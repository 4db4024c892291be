import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trendmax import (
    FrequencyOutOfRange,
    OrderViolation,
    PenetranceModel,
    case_control_probs,
    hwe_genotype_freqs,
    penetrances_for_model,
    prevalence,
)

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


def test_penetrances_order_violation():
    with pytest.raises(OrderViolation):
        penetrances_for_model("add", 0.04, 0.01)
    with pytest.raises(OrderViolation):
        PenetranceModel(0.03, 0.02, 0.04)
