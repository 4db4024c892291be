"""Exact small-sample null laws by enumeration: an oracle for the simulated thresholds.

Under a one-stratum HWE null the case and control rows are independent
multinomials, so at r = s = 20 all 231**2 = 53,361 tables can be listed,
each with its probability. The listing and its weights use nothing from
``trendmax.montecarlo``: the rows come from a loop over (n0, n1), and each
row's log-pmf from a log-factorial table. Only the thresholds under test
come from :func:`estimate_critical_values`.
"""

import functools
import math

import numpy as np
import pytest

from trendmax import Scenario, Stratum, estimate_critical_values
from trendmax.battery import evaluate_battery

N = 20  # cases and controls
ALPHA, B = 0.05, 200_000
SE = math.sqrt(ALPHA * (1.0 - ALPHA) / B)
STATISTICS = ("Z0", "Z_HALF", "MAX3", "CHI2_2DF", "T_MAX")


def genotype_rows(n: int) -> np.ndarray:
    """Every genotype row (n0, n1, n2) with n0 + n1 + n2 = n, as an (m, 3) integer array."""
    return np.array([(n0, n1, n - n0 - n1) for n0 in range(n + 1) for n1 in range(n + 1 - n0)])


def row_log_pmf(rows: np.ndarray, probs) -> np.ndarray:
    """Multinomial log-pmf of each row, its coefficient from a log-factorial table."""
    n = int(rows[0].sum())
    log_factorial = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])
    return log_factorial[n] - log_factorial[rows].sum(axis=1) + rows @ np.log(probs)


@functools.cache
def exact_law(p: float, correction: bool) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Each r = s = N table's probability under the HWE null at p, and its decision values.

    The product-multinomial weight of a table is that of its case row
    times that of its control row; the cells get +1/2 when corrected.
    """
    q = 1.0 - p
    rows = genotype_rows(N)
    log_pmf = row_log_pmf(rows, (q * q, 2.0 * p * q, p * p))
    case, control = (index.ravel() for index in np.indices((len(rows), len(rows))))
    cells = np.hstack([rows[case], rows[control]]).astype(float)
    if correction:
        cells += 0.5
    return np.exp(log_pmf[case] + log_pmf[control]), evaluate_battery(cells, STATISTICS)


@functools.cache
def simulated_thresholds(p: float, correction: bool) -> dict[str, float]:
    scenario = Scenario((Stratum(p, N, N),), None, correction=correction)
    return estimate_critical_values(scenario, STATISTICS, B, ALPHA, seed=1).thresholds


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
    # Conditioned on the statistic being defined, the exact law puts at most
    # alpha + 3 SE strictly above the simulated threshold and at least
    # alpha - 3 SE at or above it; the two differ by the atom the threshold sits on.
    weights, values = exact_law(p, correction)
    defined = ~np.isnan(values[name])
    law, value = weights[defined] / weights[defined].sum(), values[name][defined]
    threshold = simulated_thresholds(p, correction)[name]
    above, at_or_above = law[value > threshold].sum(), law[value >= threshold].sum()
    assert above <= ALPHA + 3 * SE, (threshold, above, at_or_above)
    assert at_or_above >= ALPHA - 3 * SE, (threshold, above, at_or_above)
