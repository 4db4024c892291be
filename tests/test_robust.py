import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendmax import (
    CorrelationOutOfRange,
    CorrelationTriple,
    DegenerateProportions,
    InputError,
    estimate_correlations,
    evaluate_single,
    mert_certificate,
    recommend_robust_test,
)

from trendmax.battery import evaluate_battery
from trendmax.montecarlo import simulate_cells
from trendmax.population import Stratum
from trendmax.robust import batch_correlations, correlation_values, trend_angles
from trendmax.scenarios import Scenario

from conftest import max_of, random_interior_simplex, random_tables

SQRT23 = np.sqrt(2.0 / 3.0)


def pooled_proportions(table) -> tuple[float, float, float]:
    """Genotype proportions n_i / n of six cells r0 r1 r2 s0 s1 s2, pooled over cases and controls."""
    n = sum(table)
    return tuple((table[i] + table[i + 3]) / n for i in range(3))


def test_correlations_symmetric_point():
    c = estimate_correlations((0.25, 0.5, 0.25))
    assert c.rho_0_1 == pytest.approx(1 / 3)
    assert c.rho_0_half == pytest.approx(SQRT23)
    assert c.rho_half_1 == pytest.approx(SQRT23)


def test_correlations_rare_allele_point():
    c = estimate_correlations((0.81, 0.18, 0.01))
    assert c.rho_0_half == pytest.approx(0.973329, abs=1e-5)
    assert c.rho_0_1 == pytest.approx(0.207514, abs=1e-5)
    assert c.rho_half_1 == pytest.approx(0.426401, abs=1e-5)


def test_correlations_common_allele_point():
    c = estimate_correlations((0.49, 0.42, 0.09))
    assert c.rho_0_half == pytest.approx(0.907485, abs=1e-5)
    assert c.rho_0_1 == pytest.approx(0.308257, abs=1e-5)
    assert c.rho_half_1 == pytest.approx(0.679366, abs=1e-5)


def test_correlations_reject_boundary():
    with pytest.raises(DegenerateProportions):
        estimate_correlations((0.0, 0.5, 0.5))
    with pytest.raises(DegenerateProportions):
        estimate_correlations((0.5, 0.5, 0.0))
    with pytest.raises(DegenerateProportions):
        estimate_correlations((0.5, 0.2, 0.2))  # not a distribution


@pytest.mark.parametrize("props", [(0.5, 0.5), (0.25, 0.25, 0.25, 0.25), ((0.25, 0.5, 0.25),)])
def test_correlations_need_three_proportions(props):
    with pytest.raises(InputError, match="^expected three genotype proportions$") as info:
        estimate_correlations(props)
    assert info.type is InputError


def test_correlations_without_heterozygotes_do_not_exceed_one():
    # p1 = 0: all three closed forms equal 1, and rounding must not push them above it
    p0 = np.linspace(0.01, 0.99, 981)
    props = np.stack([p0, np.zeros_like(p0), 1 - p0], axis=1)
    for rho in correlation_values(props):
        assert np.all(rho <= 1.0)
        np.testing.assert_allclose(rho, 1.0, rtol=0, atol=1e-12)
    rho = correlation_values(random_interior_simplex(2000, seed=205))
    assert all(np.all((r > 0) & (r <= 1)) for r in rho)


@pytest.fixture(scope="module")
def simulated_family_correlations():
    """Correlations (Z_0 with Z_1/2, Z_0 with Z_1, Z_1/2 with Z_1) of the signed statistics
    over 200,000 null tables at p = 0.1, r = s = 1000, no correction, and the proportions."""
    scenario = Scenario((Stratum(0.1, 1000, 1000),), None, correction=False)
    z = evaluate_battery(simulate_cells(scenario, 200_000, seed=206), ("Z0", "Z_HALF", "Z1"), False)
    z = np.array(list(z.values()))
    rho = np.corrcoef(z[:, ~np.isnan(z).any(axis=0)])
    return (rho[0, 1], rho[0, 2], rho[1, 2]), (0.81, 0.18, 0.01)


def test_trend_angles_give_the_simulated_null_correlations(simulated_family_correlations):
    simulated, props = simulated_family_correlations
    a0, ah, a1 = trend_angles(props, (0.0, 0.5, 1.0))
    analytic = (np.cos(ah - a0), np.cos(a1 - a0), np.cos(a1 - ah))
    np.testing.assert_allclose(analytic, simulated, atol=0.01)


@pytest.mark.xfail(strict=True, reason="correlation_values labels the triple with Z_0 scoring NN, "
                   "the kernels with Z_0 scoring MM: rho_0_half and rho_half_1 are swapped")
def test_correlation_values_give_the_simulated_null_correlations(simulated_family_correlations):
    simulated, props = simulated_family_correlations
    np.testing.assert_allclose(correlation_values(np.array(props)), simulated, atol=0.01)


def test_extreme_pair_is_minimum_on_interior():
    props = random_interior_simplex(2000, seed=200)
    for p in props[:500]:
        c = estimate_correlations(tuple(p))
        assert c.rho_0_1 < c.rho_0_half
        assert c.rho_0_1 < c.rho_half_1


def test_certificate_on_interior_proportions():
    props = random_interior_simplex(2000, seed=201)
    for p in props[:500]:
        c = estimate_correlations(tuple(p))
        assert mert_certificate(c)


def test_certificate_holds_on_every_estimable_table():
    # rho_0_1 is the cosine of the widest gap between the whitened directions,
    # which is below pi/2, so it is the smallest rho and the certificate holds
    # (robust module docstring); random integer tables with many zero cells
    rng = np.random.default_rng(207)
    for max_count in (3, 8, 40, 500):
        cells = rng.integers(0, max_count + 1, size=(20_000, 6)).astype(float)
        triple = batch_correlations(cells)
        ok = ~np.isnan(np.array(triple)).any(axis=0)
        assert ok.mean() > 0.5 and np.count_nonzero(cells[ok] == 0) > 100
        r0h, r01, rh1 = (rho[ok] for rho in triple)
        assert np.all(r01 <= np.minimum(r0h, rh1) + 1e-12)
        assert np.all(mert_certificate(CorrelationTriple(r0h, r01, rh1)))
        # the scalar path that analyze takes, on the tables whose triple exists
        for row in cells[ok][:500]:
            triple = estimate_correlations(pooled_proportions(row))
            assert mert_certificate(triple) is True


def signed(table, name: str) -> float:
    """The one-sided (signed) value of ``name`` on one table."""
    return evaluate_single(table, name, False)


def rho(table, field: str) -> float:
    """One field of the plug-in correlation triple of one table, as the MERTs use it."""
    return float(getattr(batch_correlations(table), field))


def test_mert_pair_values(worked_table):
    # (Z_0 + Z_1) / sqrt(2 (1 + rho_0_1)) with Z_0 = Z_1 = 3.8730 and rho_0_1 = 0.5
    assert signed(worked_table, "MERT") == pytest.approx(4.4721, abs=1e-4)
    # no heterozygotes: Z_0 = Z_1 and rho_0_1 = 1, so the MERT equals Z_0
    table = (17, 0, 22, 0, 0, 9)
    assert rho(table, "rho_0_1") == 1.0
    assert signed(table, "MERT") == signed(table, "Z0") == signed(table, "Z1")
    for row in random_tables(200, seed=204, max_count=8, corrected=False):
        m = signed(row, "MERT")
        if np.isnan(m):
            continue
        z0, z1, rho_0_1 = signed(row, "Z0"), signed(row, "Z1"), rho(row, "rho_0_1")
        assert 0.0 <= rho_0_1 <= 1.0
        assert m == pytest.approx((z0 + z1) / np.sqrt(2 * (1 + rho_0_1)), rel=1e-12, abs=1e-12)


def test_extreme_pair_condition_examples():
    assert mert_certificate(CorrelationTriple(0.8660, 0.5, 0.8660))
    # rho_0_1 is the minimum, but 0.6 + 0.6 < 1 + 0.5
    assert not mert_certificate(CorrelationTriple(0.6, 0.5, 0.6))


def test_mert_statistic_worked_example(worked_table):
    assert signed(worked_table, "MERT") == pytest.approx(4.4721, abs=1e-4)
    assert rho(worked_table, "rho_0_1") == pytest.approx(0.5)
    swapped = (30, 20, 10, 10, 20, 30)
    assert signed(swapped, "MERT") == pytest.approx(-4.4721, abs=1e-4)


def test_mert_zero_on_identical_rows():
    t = (9, 14, 7, 9, 14, 7)
    assert signed(t, "MERT") == pytest.approx(0.0, abs=1e-12)
    assert signed(t, "MERT_REC_ADD") == pytest.approx(0.0, abs=1e-12)


def test_mert_rec_add_worked_example(worked_table):
    m = signed(worked_table, "MERT_REC_ADD")
    assert rho(worked_table, "rho_0_half") == pytest.approx(np.sqrt(3) / 2)
    # (3.8730 + 4.4721) / sqrt(2 (1 + sqrt(3)/2)), recomputed directly
    expected = (3.872983346 + 4.472135955) / np.sqrt(2 * (1 + np.sqrt(3) / 2))
    assert m == pytest.approx(expected, abs=1e-6)
    assert m == pytest.approx(4.31975, abs=1e-4)


def test_max_statistics_worked_example(worked_table):
    assert evaluate_single(worked_table, "MAX3") == pytest.approx(4.4721, abs=1e-4)
    assert evaluate_single(worked_table, "MAX2") == pytest.approx(3.8730, abs=1e-4)
    assert evaluate_single(worked_table, "MAX2_REC_ADD") == pytest.approx(4.4721, abs=1e-4)
    swapped = (30, 20, 10, 10, 20, 30)
    assert evaluate_single(swapped, "MAX3") == pytest.approx(4.4721, abs=1e-4)
    assert evaluate_single(swapped, "MAX2") == pytest.approx(3.8730, abs=1e-4)


def test_max_monotonicity_exact():
    cells = random_tables(500, seed=202)
    for row in cells[:100]:
        m2 = evaluate_single(row, "MAX2")
        m3 = evaluate_single(row, "MAX3")
        assert m3 >= m2
        assert m2 >= abs(signed(row, "Z0")) - 1e-12
        assert m2 >= abs(signed(row, "Z1")) - 1e-12


def max_grid(table, grid) -> float:
    return evaluate_single(table, max_of(grid), True)


def test_max_grid_contains_max3(worked_table):
    assert max_grid(worked_table, (0.0, 0.5, 1.0)) == evaluate_single(worked_table, "MAX3")
    single = max_grid(worked_table, (0.5,))
    assert single == pytest.approx(4.4721, abs=1e-4)


def test_max_grid_refinement_monotone(worked_table):
    coarse = max_grid(worked_table, (0.0, 0.5, 1.0))
    fine = max_grid(worked_table, tuple(np.linspace(0, 1, 21)))
    assert fine >= coarse


def test_recommendation_thresholds():
    assert recommend_robust_test(0.8)[0] == "MERT"
    assert recommend_robust_test(1.0)[0] == "MERT"  # the closed end of (-1, 1]
    assert recommend_robust_test(0.33)[0] == "MAX"
    choice, note = recommend_robust_test(0.6)
    assert choice == "MAX" and "either" in note


@pytest.mark.parametrize("rho_st", [-1.0, 1.0001, float("nan")])
def test_recommendation_rejects_a_correlation_outside_minus_one_to_one(rho_st):
    with pytest.raises(CorrelationOutOfRange, match=r"not in \(-1, 1\]"):
        recommend_robust_test(rho_st)


def test_certificate_on_table(worked_table):
    assert mert_certificate(estimate_correlations(pooled_proportions(worked_table)))


@given(st.lists(st.integers(0, 50), min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_mert_pair_bounds(cells):
    # sqrt(2 (1 + rho)) <= 2, so |MERT| >= |Z_0 + Z_1| / 2, with equality at rho = 1
    m = signed(cells, "MERT")
    if np.isnan(m):
        return
    z0, z1 = signed(cells, "Z0"), signed(cells, "Z1")
    assert abs(m) >= abs(z0 + z1) / 2 * (1 - 1e-12)
