"""Exact small-sample laws by enumeration: an oracle for the simulated thresholds and power.

Under a one-stratum HWE null the case and control rows are independent
multinomials, so at r = s = 20 all 231**2 = 53,361 tables can be listed,
each with its probability. Under an alternative the rows stay independent
multinomials, with the genotype frequencies tilted by the penetrances. The
listing and its weights use nothing from ``trendmax.montecarlo``: the rows
come from a loop over (n0, n1), each row's log-pmf from a log-factorial
table, and each row's genotype probabilities from Bayes' rule here. Only
the thresholds and rates under test come from
:func:`estimate_critical_values` and :func:`estimate_power`.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from trendmax import Scenario, Stratum, estimate_critical_values, estimate_power, penetrances_for_model
from trendmax.battery import evaluate_battery

N = 20  # cases and controls
ALPHA, B = 0.05, 200_000
SE = math.sqrt(ALPHA * (1.0 - ALPHA) / B)
STATISTICS = ("Z0", "Z_HALF", "MAX3", "CHI2_2DF", "T_MAX")
PLUG_IN = ("MERT", "MERT_REC_ADD")  # their scale, and so their thresholds, depend on the plug-in rho
POWER_B = 20_000


def genotype_rows(n: int) -> np.ndarray:
    """Every genotype row (n0, n1, n2) with n0 + n1 + n2 = n, as an (m, 3) integer array."""
    return np.array([(n0, n1, n - n0 - n1) for n0 in range(n + 1) for n1 in range(n + 1 - n0)])


def row_log_pmf(rows: np.ndarray, probs) -> np.ndarray:
    """Multinomial log-pmf of each row, its coefficient from a log-factorial table."""
    n = int(rows[0].sum())
    log_factorial = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])
    return log_factorial[n] - log_factorial[rows].sum(axis=1) + rows @ np.log(probs)


def row_probs(p: float, penetrances) -> tuple[np.ndarray, np.ndarray]:
    """Genotype probabilities of a case row and of a control row at allele frequency p.

    Under the null (no penetrances) both are the HWE frequencies g; with
    penetrances f and prevalence D = f . g they are f g / D and (1 - f) g / (1 - D).
    """
    q = 1.0 - p
    g = np.array([q * q, 2.0 * p * q, p * p])
    if penetrances is None:
        return g, g
    f = np.array(penetrances)
    d = f @ g
    return f * g / d, (1.0 - f) * g / (1.0 - d)


@functools.cache
def exact_law(p: float, correction: bool, two_sided: bool = True,
              penetrances=None) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Each r = s = N table's probability at p, under the null or the penetrances, and its decision values.

    The product-multinomial weight of a table is that of its case row
    times that of its control row; the cells get +1/2 when corrected.
    """
    rows = genotype_rows(N)
    case_probs, control_probs = row_probs(p, penetrances)
    case_pmf, control_pmf = row_log_pmf(rows, case_probs), row_log_pmf(rows, control_probs)
    case, control = (index.ravel() for index in np.indices((len(rows), len(rows))))
    cells = np.hstack([rows[case], rows[control]]).astype(float)
    if correction:
        cells += 0.5
    return np.exp(case_pmf[case] + control_pmf[control]), evaluate_battery(cells, STATISTICS + PLUG_IN, two_sided)


@functools.cache
def simulated_thresholds(p: float, correction: bool, two_sided: bool = True) -> dict[str, float]:
    scenario = Scenario((Stratum(p, N, N),), None, correction=correction, two_sided=two_sided)
    return estimate_critical_values(scenario, STATISTICS + PLUG_IN, B, ALPHA, seed=1).thresholds


def assert_exact_level(p: float, correction: bool, two_sided: bool, name: str) -> None:
    # Conditioned on the statistic being defined, the exact law puts at most
    # alpha + 3 SE strictly above the simulated threshold and at least
    # alpha - 3 SE at or above it; the two differ by the atom the threshold sits on.
    weights, values = exact_law(p, correction, two_sided)
    defined = ~np.isnan(values[name])
    law, value = weights[defined] / weights[defined].sum(), values[name][defined]
    threshold = simulated_thresholds(p, correction, two_sided)[name]
    above, at_or_above = law[value > threshold].sum(), law[value >= threshold].sum()
    assert above <= ALPHA + 3 * SE, (threshold, above, at_or_above)
    assert at_or_above >= ALPHA - 3 * SE, (threshold, above, at_or_above)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_the_listing_holds_every_table_once_and_its_weights_sum_to_one(p):
    weights, values = exact_law(p, True)
    assert len(genotype_rows(N)) == math.comb(N + 2, 2) == 231
    assert weights.size == 231**2 == 53_361
    assert abs(weights.sum() - 1.0) < 1e-12
    assert all(v.shape == weights.shape and not np.isnan(v).any() for v in values.values())


@pytest.mark.parametrize("name", STATISTICS)
@pytest.mark.parametrize("correction", [True, False])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_the_simulated_threshold_has_the_exact_level(p, correction, name):
    assert_exact_level(p, correction, True, name)


@pytest.mark.parametrize("name, two_sided", [*((name, False) for name in STATISTICS),
                                             *itertools.product(PLUG_IN, (True, False))])
@pytest.mark.parametrize("correction", [True, False])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_a_one_sided_or_plug_in_threshold_has_the_exact_level(p, correction, name, two_sided):
    assert_exact_level(p, correction, two_sided, name)


def test_an_alternative_listing_sums_to_one_and_its_rows_follow_bayes_rule():
    model = penetrances_for_model("add", 0.1, 0.3)
    weights, _ = exact_law(0.3, True, True, (model.f0, model.f1, model.f2))
    case_probs, control_probs = row_probs(0.3, (model.f0, model.f1, model.f2))
    assert abs(weights.sum() - 1.0) < 1e-12
    # the prevalence-weighted mix of cases and controls is the population
    d = np.dot((model.f0, model.f1, model.f2), row_probs(0.3, None)[0])
    assert np.allclose(d * case_probs + (1.0 - d) * control_probs, row_probs(0.3, None)[0], atol=1e-15)


@pytest.mark.parametrize("kind, f2", [("add", 0.3), ("rec", 0.4)])
def test_the_simulated_power_is_the_exact_rate_above_the_simulated_threshold(kind, f2):
    # estimate_power's thresholds are those of its null at null_seed, which for
    # each statistic do not depend on the rest of the battery; an undefined
    # value never rejects, so the exact rate is the weight strictly above
    model = penetrances_for_model(kind, 0.1, f2)
    battery = ("Z_HALF", "MAX3", "MERT")
    (row,) = estimate_power([Scenario((Stratum(0.3, N, N),), model)], battery, POWER_B,
                            b_null=B, alpha=ALPHA, seed=2, null_seed=1)
    weights, values = exact_law(0.3, True, True, (model.f0, model.f1, model.f2))
    thresholds = simulated_thresholds(0.3, True)
    for name in battery:
        rate = weights[values[name] > thresholds[name]].sum()
        assert 0.05 < rate < 0.5, (name, rate)
        assert abs(row.rates[name] - rate) <= 3 * math.sqrt(rate * (1.0 - rate) / POWER_B), (name, rate)
