import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

from trendmax import (
    CaseControlProbs,
    GenotypeTable,
    HWEPopulation,
    MismatchedScenario,
    MixturePopulation,
    NotPSD,
    PenetranceModel,
    Scenario,
    ScenarioError,
    DegenerateTable,
    InputError,
    empirical_upper_quantile,
    estimate_critical_values,
    estimate_power,
    exact_permutation_pvalue,
    mean_correlation_matrix,
    normal_approx_critical_max,
    penetrances_for_model,
    permutation_pvalue,
    pvalue_crosstab,
    sample_mixture,
    sample_table,
    simulate_cells,
)
from trendmax.battery import ALL_STATISTICS, evaluate_single
from trendmax.montecarlo import CHUNK_SIZE
from trendmax.tables import parse_table_record

GOLDEN = Path(__file__).resolve().parent / "golden"

BATTERY = ("Z0", "Z_HALF", "Z1", "MERT", "MAX2", "MAX3", "CHI2_2DF", "T_P", "T_MAX")


def null_scenario(p=0.3, r=250, s=250) -> Scenario:
    return Scenario(population=HWEPopulation(p), penetrances=None, n_cases=r, n_controls=s)


def alt_scenario(p=0.3, f2=0.02, kind="add", r=250, s=250) -> Scenario:
    return Scenario(
        population=HWEPopulation(p),
        penetrances=penetrances_for_model(kind, 0.01, f2),
        n_cases=r,
        n_controls=s,
    )


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_sample_table_degenerate_probs():
    probs = CaseControlProbs(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, prevalence=0.1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = sample_table(probs, 50, 30, rng)
        assert t.case_row == (50, 0, 0)
        assert t.control_row == (30, 0, 0)


def test_sample_table_row_sums():
    probs = CaseControlProbs(0.2, 0.5, 0.3, 0.4, 0.4, 0.2, prevalence=0.1)
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = sample_table(probs, 37, 91, rng)
        assert t.r == 37 and t.s == 91


def test_sample_table_frequencies_match_probs():
    probs = CaseControlProbs(0.2, 0.5, 0.3, 0.4, 0.4, 0.2, prevalence=0.1)
    rng = np.random.default_rng(2)
    b = 100_000
    rows = np.array([sample_table(probs, 1, 1, rng).case_row for _ in range(b)])
    freq = rows.mean(axis=0)
    for f, p in zip(freq, probs.case_probs):
        assert abs(f - p) <= 3 * math.sqrt(p * (1 - p) / b)


def test_sample_mixture_degenerate_equals_single():
    pop = MixturePopulation(0.3, 0.3, 100, 50, 120, 80)
    rng = np.random.default_rng(3)
    t = sample_mixture(pop, None, rng)
    assert t.r == 150 and t.s == 200


def test_sample_mixture_null_rows_same_distribution():
    pop = MixturePopulation(0.1, 0.5, 100, 100, 100, 100)
    rng = np.random.default_rng(4)
    case_means = np.zeros(3)
    ctrl_means = np.zeros(3)
    b = 3000
    for _ in range(b):
        t = sample_mixture(pop, None, rng)
        case_means += np.array(t.case_row) / b
        ctrl_means += np.array(t.control_row) / b
    assert np.allclose(case_means, ctrl_means, atol=4 * math.sqrt(200 * 0.25 / b) + 0.5)


def test_simulate_cells_correction_flag():
    sc = null_scenario()
    cells = simulate_cells(sc, 100, seed=5)
    assert np.all(cells % 1 == 0.5)
    raw = simulate_cells(
        Scenario(population=HWEPopulation(0.3), penetrances=None,
                 n_cases=250, n_controls=250, correction=False),
        100, seed=5)
    assert np.all(raw % 1 == 0)


def row_major_reference(scenario: Scenario, b: int, seed: int) -> np.ndarray:
    """The sampler's draws laid out row-major: per-chunk (count, 6) blocks, concatenated."""
    counts = [CHUNK_SIZE] * (b // CHUNK_SIZE) + ([b % CHUNK_SIZE] if b % CHUNK_SIZE else [])
    parts = []
    for count, chunk_seed in zip(counts, np.random.SeedSequence(seed).spawn(len(counts))):
        rng = np.random.default_rng(chunk_seed)
        case = np.zeros((count, 3))
        ctrl = np.zeros((count, 3))
        for case_probs, ctrl_probs, n_cases, n_controls in scenario.strata():
            case += rng.multinomial(n_cases, case_probs, size=count)
            ctrl += rng.multinomial(n_controls, ctrl_probs, size=count)
        cells = np.concatenate([case, ctrl], axis=1)
        if scenario.correction:
            cells += 0.5
        parts.append(cells)
    return np.concatenate(parts, axis=0)


@pytest.mark.parametrize("correction", [True, False])
@pytest.mark.parametrize("population", [
    HWEPopulation(0.3),
    MixturePopulation(0.1, 0.4, 150, 100, 120, 130),
])
def test_simulate_cells_matches_row_major_reference(population, correction):
    sc = Scenario(population=population, penetrances=penetrances_for_model("add", 0.01, 0.03),
                  n_cases=250, n_controls=250, correction=correction)
    b = 2 * CHUNK_SIZE + 137
    cells = simulate_cells(sc, b, seed=11)
    assert cells.shape == (b, 6)
    assert np.array_equal(cells, row_major_reference(sc, b, seed=11))
    for j in range(6):
        assert cells[:, j].flags.c_contiguous


def test_mixture_split_must_match_totals():
    with pytest.raises(ScenarioError):
        Scenario(population=MixturePopulation(0.1, 0.4, 250, 100, 250, 100),
                 penetrances=None, n_cases=300, n_controls=350)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_estimate_power_bitwise_reproducible():
    sc = alt_scenario()
    cvs = estimate_critical_values(sc.null_scenario(), BATTERY, b=20_000, seed=7)
    rows = [estimate_power(sc, BATTERY, cvs, b=5_000, seed=8) for _ in range(2)]
    assert rows[0].rates == rows[1].rates


# ---------------------------------------------------------------------------
# critical values and power
# ---------------------------------------------------------------------------

def test_empirical_quantile_normal_oracle():
    rng = np.random.default_rng(9)
    draws = np.abs(rng.standard_normal(200_000))
    assert empirical_upper_quantile(draws, 0.05) == pytest.approx(1.959964, abs=0.02)
    one_sided = rng.standard_normal(200_000)
    assert empirical_upper_quantile(one_sided, 0.05) == pytest.approx(1.644854, abs=0.02)


def test_empirical_quantile_median_and_monotonicity():
    rng = np.random.default_rng(10)
    draws = rng.standard_normal(50_001)
    assert empirical_upper_quantile(draws, 0.5) == pytest.approx(np.median(draws), abs=1e-6)
    alphas = (0.01, 0.05, 0.1, 0.25, 0.5)
    thresholds = [empirical_upper_quantile(draws, a) for a in alphas]
    assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))


def sorted_reference_quantile(values, alpha: float) -> float:
    values = np.sort(values[~np.isnan(values)])
    k = min(max(math.ceil((1.0 - alpha) * values.size), 1), values.size)
    return float(values[k - 1])


@given(
    st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.5, math.nan]),
                       st.floats(-10, 10, allow_nan=False)), min_size=1, max_size=60),
    st.sampled_from([1e-12, 0.01, 0.05, 0.5, 0.95, 0.999, 1.0 - 1e-12]),
)
@settings(max_examples=200, deadline=None)
def test_empirical_quantile_equals_sorted_reference(values, alpha):
    values = np.array(values)
    if np.isnan(values).all():
        with pytest.raises(InputError):
            empirical_upper_quantile(values, alpha)
        return
    assert empirical_upper_quantile(values, alpha) == sorted_reference_quantile(values, alpha)


def test_empirical_quantile_single_value_and_ties():
    for alpha in (1e-12, 0.05, 1.0 - 1e-12):
        assert empirical_upper_quantile(np.array([3.0]), alpha) == 3.0
        assert empirical_upper_quantile(np.array([math.nan, 3.0]), alpha) == 3.0
    ties = np.array([1.0, 2.0, 2.0, 2.0, 5.0, math.nan])
    assert [empirical_upper_quantile(ties, a) for a in (0.9, 0.5, 0.1)] == [1.0, 2.0, 5.0]


def test_empirical_quantile_convergence_rate():
    # O(1 / sqrt(B)) error against the exact normal quantile
    target = float(spstats.norm.ppf(0.95))
    rng = np.random.default_rng(11)
    c = 4 * math.sqrt(0.05 * 0.95) / spstats.norm.pdf(target)
    for b in (10**3, 10**4, 10**5):
        errors = [
            abs(empirical_upper_quantile(rng.standard_normal(b), 0.05) - target)
            for _ in range(5)
        ]
        assert np.median(errors) <= c / math.sqrt(b)


def test_criticals_require_null_scenario():
    with pytest.raises(ScenarioError):
        estimate_critical_values(alt_scenario(), BATTERY, b=2_000, seed=12)


def test_size_matches_level_when_null_is_alternative():
    sc = null_scenario(p=0.5)
    cvs = estimate_critical_values(sc, BATTERY, b=100_000, seed=13)
    row = estimate_power(sc, BATTERY, cvs, b=10_000, seed=14)
    se = math.sqrt(0.05 * 0.95 / 10_000)
    for name in BATTERY:
        assert abs(row.rates[name] - 0.05) <= 3 * se + 0.003


def test_power_mismatched_scenario_rejected():
    cvs = estimate_critical_values(null_scenario(p=0.3), BATTERY, b=2_000, seed=15)
    with pytest.raises(MismatchedScenario):
        estimate_power(alt_scenario(p=0.5), BATTERY, cvs, b=1_000, seed=16)
    with pytest.raises(MismatchedScenario):
        estimate_power(alt_scenario(r=100, s=250), BATTERY, cvs, b=1_000, seed=16)


def test_power_nondecreasing_in_effect_size():
    sc0 = null_scenario()
    cvs = estimate_critical_values(sc0, ("Z_HALF",), b=50_000, seed=17)
    powers = []
    for f2 in (0.013, 0.016, 0.020):
        row = estimate_power(alt_scenario(f2=f2), ("Z_HALF",), cvs, b=6_000, seed=18)
        powers.append(row.rates["Z_HALF"])
    assert powers[0] < powers[1] < powers[2]


def test_power_reports_se():
    sc = alt_scenario()
    cvs = estimate_critical_values(sc.null_scenario(), ("MAX3",), b=5_000, seed=19)
    row = estimate_power(sc, ("MAX3",), cvs, b=2_500, seed=20)
    rate = row.rates["MAX3"]
    assert row.standard_errors["MAX3"] == pytest.approx(math.sqrt(rate * (1 - rate) / 2_500))


# ---------------------------------------------------------------------------
# mean correlations
# ---------------------------------------------------------------------------

def test_mean_correlations_null_reference_values():
    for p, expected in ((0.5, (0.82, 0.33, 0.82)), (0.1, (0.97, 0.22, 0.45))):
        mc = mean_correlation_matrix(null_scenario(p=p), b=10_000, seed=21)
        assert np.allclose(mc.as_tuple(), expected, atol=0.02)
        assert mc.failure_rate == 0.0


def test_mean_correlations_failure_rate_without_correction():
    # tiny uncorrected samples at a rare allele frequently miss MM entirely
    sc = Scenario(population=HWEPopulation(0.05), penetrances=None,
                  n_cases=10, n_controls=10, correction=False)
    mc = mean_correlation_matrix(sc, b=2_000, seed=22)
    assert mc.failure_rate > 0.5


# ---------------------------------------------------------------------------
# p-value cross-tabulation
# ---------------------------------------------------------------------------

def test_crosstab_identical_statistics_diagonal():
    tab = pvalue_crosstab(alt_scenario(), "MAX3", "MAX3", b_null=5_000, b_reps=500, seed=23)
    assert tab.counts.sum() == 500
    assert np.all(tab.counts == np.diag(np.diag(tab.counts)))


def test_crosstab_grand_total_and_uniform_null():
    tab = pvalue_crosstab(null_scenario(p=0.5), "Z_HALF", "CHI2_2DF",
                          b_null=100_000, b_reps=5_000, seed=24)
    assert tab.counts.sum() == 5_000
    for margin in (tab.counts.sum(axis=1), tab.counts.sum(axis=0)):
        frac_below_01 = margin[0] / 5_000
        assert abs(frac_below_01 - 0.01) <= 3 * math.sqrt(0.01 * 0.99 / 5_000) + 0.001


def test_crosstab_margin_matches_power():
    sc = alt_scenario(f2=0.02)
    tab = pvalue_crosstab(sc, "MAX3", "CHI2_2DF", b_null=50_000, b_reps=4_000, seed=25)
    cvs = estimate_critical_values(sc.null_scenario(), ("MAX3",), b=50_000, seed=26)
    row = estimate_power(sc, ("MAX3",), cvs, b=4_000, seed=27)
    frac_below_05 = tab.counts[:2, :].sum() / 4_000
    assert abs(frac_below_05 - row.rates["MAX3"]) <= 0.025


def test_crosstab_directional_claim_for_max3_vs_chi2():
    # under a trend alternative the 1-parameter maximum earns smaller p-values
    sc = alt_scenario(f2=0.02023, kind="add", p=0.3)
    tab = pvalue_crosstab(sc, "MAX3", "CHI2_2DF", b_null=50_000, b_reps=4_000, seed=28)
    upper_right = np.triu(tab.counts, k=1).sum()
    lower_left = np.tril(tab.counts, k=-1).sum()
    assert upper_right > lower_left


def test_crosstab_undefined_replicates_are_not_significant():
    # HWD is undefined on ~43% of these uncorrected null replicates and
    # Z_HALF on ~20%; they must land in the p = 1 bin, not in [0, 0.01).
    sc = Scenario(population=HWEPopulation(0.02), penetrances=None,
                  n_cases=20, n_controls=20, correction=False)
    tab = pvalue_crosstab(sc, "HWD", "Z_HALF", b_null=2_000, b_reps=2_000, seed=1)
    assert tab.counts.shape == (4, 4)
    assert tab.counts.sum() == 2_000
    rows, cols = tab.counts.sum(axis=1), tab.counts.sum(axis=0)
    assert rows[0] <= 40 and cols[0] <= 40  # about 1% under the null, was 911 and 403
    assert rows[-1] >= 700 and cols[-1] >= 300  # the undefined replicates


def test_crosstab_rejects_bad_bins():
    with pytest.raises(Exception):
        pvalue_crosstab(null_scenario(), "Z0", "Z1", b_null=2_000, b_reps=100,
                        bins=(0.5, 0.1), seed=29)


# ---------------------------------------------------------------------------
# permutation p-values
# ---------------------------------------------------------------------------

def subset_permutation_oracle(table: GenotypeTable, statistic: str) -> Fraction:
    """Exhaustive label permutation over C(n, r) case subsets."""
    genotypes = []
    for g, count in enumerate((table.n0, table.n1, table.n2)):
        genotypes.extend([g] * int(count))
    n = len(genotypes)
    r = int(table.r)
    observed = evaluate_single(table.to_array(), statistic)
    total = 0
    exceed = 0
    for case_idx in itertools.combinations(range(n), r):
        row = [0, 0, 0]
        for i in case_idx:
            row[genotypes[i]] += 1
        ctrl = [int(m) - c for m, c in zip((table.n0, table.n1, table.n2), row)]
        value = evaluate_single(np.array(row + ctrl, dtype=float), statistic)
        total += 1
        if not math.isnan(value) and value >= observed:
            exceed += 1
    return Fraction(exceed, total)


@pytest.mark.parametrize("statistic", ["Z_HALF", "CHI2_2DF", "T_MAX", "MAX3"])
def test_exact_permutation_matches_subset_enumeration(statistic):
    tables = [
        GenotypeTable(1, 2, 3, 3, 2, 1),
        GenotypeTable(2, 1, 2, 1, 3, 2),
        GenotypeTable(0, 3, 2, 3, 1, 2),
    ]
    for t in tables:
        assert exact_permutation_pvalue(t, statistic) == subset_permutation_oracle(t, statistic)


def test_permutation_identical_rows_pvalue_near_one():
    t = GenotypeTable(5, 10, 5, 5, 10, 5)
    p = permutation_pvalue(t, ("CHI2_2DF",), 2_000, seed=30)["CHI2_2DF"]
    assert p > 0.9


def test_permutation_zero_b_returns_one(worked_table):
    assert permutation_pvalue(worked_table, ("MAX3",), 0, seed=31)["MAX3"] == 1.0


def test_permutation_extreme_table_small_pvalue(worked_table):
    p = permutation_pvalue(worked_table, ("T_MAX",), 10_000, seed=32)["T_MAX"]
    assert p < 0.01


def test_permutation_monte_carlo_agrees_with_exact():
    t = GenotypeTable(1, 2, 3, 3, 2, 1)
    exact = float(exact_permutation_pvalue(t, "CHI2_2DF"))
    b = 20_000
    approx = permutation_pvalue(t, ("CHI2_2DF",), b, seed=33)["CHI2_2DF"]
    assert abs(approx - exact) <= 4 * math.sqrt(exact * (1 - exact) / b) + 1e-4


def test_permutation_requires_integer_table():
    t = GenotypeTable(1.5, 2.5, 3.5, 3.5, 2.5, 1.5)
    with pytest.raises(DegenerateTable):
        permutation_pvalue(t, ("CHI2_2DF",), 100, seed=34)


def golden_tables() -> list[GenotypeTable]:
    lines = (GOLDEN / "tables.txt").read_text(encoding="utf-8").splitlines()
    return [parse_table_record(line) for line in lines if not line.startswith("#")]


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=10, deadline=None)
def test_permutation_statistic_alone_equals_statistic_in_battery(seed, two_sided):
    grid = (0.0, 0.2, 0.35, 0.5, 0.9, 1.0)
    for t in golden_tables():
        full = permutation_pvalue(t, ALL_STATISTICS, 300, seed=seed, two_sided=two_sided, grid=grid)
        for name in ALL_STATISTICS:
            alone = permutation_pvalue(t, (name,), 300, seed=seed, two_sided=two_sided, grid=grid)
            # bit for bit, NaN (undefined on the observed table) included
            assert np.float64(alone[name]).tobytes() == np.float64(full[name]).tobytes(), (t, name)


def test_permutation_undefined_observed_statistic_is_nan():
    t = GenotypeTable(10, 0, 0, 5, 0, 0)  # monomorphic: every statistic undefined
    p = permutation_pvalue(t, ALL_STATISTICS, 100, seed=39)
    assert list(p) == list(ALL_STATISTICS)
    assert all(math.isnan(v) for v in p.values())
    with pytest.raises(DegenerateTable, match="statistic Z0 is undefined on the observed table"):
        exact_permutation_pvalue(t, "Z0")


def test_permutation_battery_agrees_with_exact():
    t = GenotypeTable(2, 3, 4, 5, 3, 1)
    b = 20_000
    approx = permutation_pvalue(t, ALL_STATISTICS, b, seed=40)
    for name in ALL_STATISTICS:
        exact = float(exact_permutation_pvalue(t, name))
        assert abs(approx[name] - exact) <= 4 * math.sqrt(exact * (1 - exact) / b) + 1e-4, name


# ---------------------------------------------------------------------------
# normal approximation for MAX thresholds
# ---------------------------------------------------------------------------

def test_normal_approx_single_coordinate():
    value = normal_approx_critical_max(np.eye(1), 0.05, 200_000, seed=35)
    assert value == pytest.approx(1.645, abs=0.02)


def test_normal_approx_perfect_correlation_collapses():
    rho = np.ones((2, 2))
    value = normal_approx_critical_max(rho, 0.05, 200_000, seed=36)
    single = normal_approx_critical_max(np.eye(1), 0.05, 200_000, seed=36)
    assert value == pytest.approx(single, abs=0.02)


def test_normal_approx_threshold_decreases_with_correlation():
    thresholds = []
    for rho in (0.0, 0.5, 0.9):
        m = np.array([[1.0, rho], [rho, 1.0]])
        thresholds.append(normal_approx_critical_max(m, 0.05, 200_000, seed=37))
    assert thresholds[0] > thresholds[1] > thresholds[2]


def test_normal_approx_rejects_non_psd():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPSD):
        normal_approx_critical_max(bad, 0.05, 1_000, seed=38)
