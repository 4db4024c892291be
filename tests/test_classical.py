import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trendmax import (
    GenotypeTable,
    MonomorphicSample,
    ZeroMargin,
    ZeroVariance,
    chisq_2df,
    chisq_allele,
    max2,
    max3,
    max_grid,
    mert_rec_add,
    mert_statistic,
    product_test,
    tmax,
    trend_statistic,
)
from trendmax.battery import ALL_STATISTICS, STATISTICS, evaluate_battery, validate_battery
from trendmax.classical import allele_chisq_values, chi2df_values, hwd_values
from trendmax.robust import CorrelationTriple, batch_correlations

from conftest import assert_bit_identical, random_tables


def pearson_2x2_oracle(table: GenotypeTable) -> float:
    """Brute-force Pearson chi-square on the collapsed allele table."""
    # two alleles per individual: NN gives two N, NM one of each, MM two M
    obs = np.array([[2 * table.r0 + table.r1, table.r1 + 2 * table.r2],
                    [2 * table.s0 + table.s1, table.s1 + 2 * table.s2]])
    rows = obs.sum(axis=1, keepdims=True)
    cols = obs.sum(axis=0, keepdims=True)
    exp = rows * cols / obs.sum()
    return float(((obs - exp) ** 2 / exp).sum())


def broadcast_chi2df_reference(cells: np.ndarray) -> np.ndarray:
    """The 2-df chi-square as (B, 3) row and column arrays summed over the last axis."""
    cells = np.asarray(cells, dtype=float)
    rr = cells[..., 0:3]
    ss = cells[..., 3:6]
    r = rr.sum(axis=-1, keepdims=True)
    s = ss.sum(axis=-1, keepdims=True)
    nn = rr + ss
    n = r + s
    with np.errstate(divide="ignore", invalid="ignore"):
        er = r * nn / n
        es = s * nn / n
        stat = ((rr - er) ** 2 / er + (ss - es) ** 2 / es).sum(axis=-1)
        ok = (nn > 0).all(axis=-1) & (r[..., 0] > 0) & (s[..., 0] > 0)
        return np.where(ok, stat, np.nan)


CELL = st.one_of(st.integers(0, 6).map(float), st.floats(0.0, 1e3, allow_subnormal=False))


@given(st.lists(st.lists(CELL, min_size=6, max_size=6), min_size=1, max_size=40))
@example([[0.0] * 6, [0.0, 0.0, 0.0, 3.0, 4.0, 5.0], [0.0, 2.0, 3.0, 0.0, 1.0, 4.0]])
@settings(max_examples=200, deadline=None)
def test_chi2df_values_bit_identical_to_broadcast_formula(rows):
    cells = np.array(rows, dtype=float)
    want = broadcast_chi2df_reference(cells)
    for layout in (np.ascontiguousarray(cells), np.asfortranarray(cells),
                   np.ascontiguousarray(cells.T).T):
        assert_bit_identical(chi2df_values(layout), want)
    for i, row in enumerate(cells):
        assert_bit_identical(chi2df_values(row[None, :]), want[i:i + 1])
        assert_bit_identical(chi2df_values(row), broadcast_chi2df_reference(row))


def test_hwd_values_reads_the_case_columns_of_whole_tables():
    cells = random_tables(500, seed=303, max_count=5, corrected=False)
    assert_bit_identical(hwd_values(cells), hwd_values(cells[:, :3]))
    assert_bit_identical(hwd_values(np.asfortranarray(cells)), hwd_values(cells[:, :3]))


def test_chisq_2df_worked_example(worked_table):
    assert chisq_2df(worked_table) == pytest.approx(20.0)


def test_chisq_2df_zero_on_identical_rows():
    assert chisq_2df(GenotypeTable(5, 6, 7, 5, 6, 7)) == pytest.approx(0.0)


def test_chisq_2df_scales_linearly(worked_table):
    doubled = GenotypeTable(*(2 * c for c in worked_table.cells()))
    assert chisq_2df(doubled) == pytest.approx(2 * chisq_2df(worked_table))


def test_chisq_2df_zero_margin():
    with pytest.raises(ZeroMargin):
        chisq_2df(GenotypeTable(1, 2, 0, 3, 4, 0))


def test_chisq_allele_worked_example(worked_table):
    assert chisq_allele(worked_table) == pytest.approx(26.6667, abs=5e-5)


def test_chisq_allele_zero_on_identical_rows():
    assert chisq_allele(GenotypeTable(5, 6, 7, 5, 6, 7)) == pytest.approx(0.0)


def test_chisq_allele_scales_linearly(worked_table):
    doubled = GenotypeTable(*(2 * c for c in worked_table.cells()))
    assert chisq_allele(doubled) == pytest.approx(2 * chisq_allele(worked_table))


def test_chisq_allele_matches_bruteforce_pearson():
    cells = random_tables(1000, seed=301)
    batch = allele_chisq_values(cells)
    for row, expected in zip(cells[:250], batch[:250]):
        t = GenotypeTable(*row)
        assert chisq_allele(t) == pytest.approx(pearson_2x2_oracle(t), abs=1e-10)
        assert expected == pytest.approx(pearson_2x2_oracle(t), abs=1e-10)


def hwd(case_row) -> float:
    """The registry's HWD chi-square of one table with these cases."""
    return float(evaluate_battery(np.array([*case_row, 1, 1, 1], dtype=float), ("HWD",))["HWD"][0])


def test_chisq_hwd_exact_proportions():
    assert hwd((25, 50, 25)) == pytest.approx(0.0)


def test_chisq_hwd_worked_example():
    assert hwd((10, 20, 30)) == pytest.approx(3.75)


def test_chisq_hwd_monomorphic():
    assert np.isnan(hwd((0, 0, 60))) and np.isnan(hwd((60, 0, 0)))
    assert STATISTICS["HWD"].undefined is MonomorphicSample
    with pytest.raises(MonomorphicSample):
        tmax(GenotypeTable(0, 0, 60, 20, 20, 20))


def test_chisq_hwd_zero_iff_hwe_identity():
    rng = np.random.default_rng(302)
    for _ in range(200):
        row = rng.integers(1, 80, size=3).astype(float)
        stat = hwd(row)
        identity = abs(row[1] ** 2 - 4 * row[0] * row[2])
        if stat < 1e-9:
            assert identity < 1e-6 * max(1.0, row.prod())
        if identity == 0:
            assert stat == pytest.approx(0.0, abs=1e-9)


def scalar_or_nan(fn, *args) -> float:
    """The scalar value (``.value`` of a result object), or NaN where fn raises that it is undefined."""
    try:
        value = fn(*args)
    except (ZeroVariance, ZeroMargin, MonomorphicSample):
        return np.nan
    return getattr(value, "value", value)


GRID = (0.0, 0.2, 0.5, 0.7, 1.0)

# Scalar functions keyed by the battery statistic each must reproduce,
# per sidedness. The MERTs and Z_x are signed, so they match the one-sided
# battery; the chi-squares and composites have no sidedness.
SCALAR_WRAPPERS = {
    True: {
        "MAX2": lambda t: max2(t, True),
        "MAX2_REC_ADD": lambda t: max2(t, True, pair=(0.0, 0.5)),
        "MAX3": lambda t: max3(t, True),
        "MAXGRID": lambda t: max_grid(t, GRID, True),
    },
    False: {
        "MAX2": lambda t: max2(t, False),
        "MAX2_REC_ADD": lambda t: max2(t, False, pair=(0.0, 0.5)),
        "MAX3": lambda t: max3(t, False),
        "MAXGRID": lambda t: max_grid(t, GRID, False),
        "MERT": mert_statistic,
        "MERT_REC_ADD": mert_rec_add,
        "Z0": lambda t: trend_statistic(t, 0.0),
        "Z_HALF": lambda t: trend_statistic(t, 0.5),
        "Z1": lambda t: trend_statistic(t, 1.0),
        "CHI2_2DF": chisq_2df,
        "AA": chisq_allele,
        "HWD": lambda t: float(hwd_values(np.array(t.cells()))),
        "T_P": product_test,
        "T_MAX": tmax,
    },
}


def test_scalar_composites_bit_identical_to_batch():
    # small counts give zero cells, monomorphic case rows and tables with no
    # heterozygotes, where the plug-in correlations are 1; half of the
    # tables are shifted by the +1/2 correction
    rng = np.random.default_rng(0)
    cells = rng.integers(0, 40, size=(10_000, 6)).astype(float)
    cells[rng.random(10_000) < 0.5] += 0.5
    cells[rng.random((10_000, 6)) < 0.05] = 0.0
    assert np.count_nonzero(cells[:, 1] + cells[:, 4] == 0) > 10
    assert_bit_identical(evaluate_battery(cells, ("HWD",))["HWD"], hwd_values(cells[:, :3]))
    tables = [GenotypeTable(*row) for row in cells]
    for two_sided, wrappers in SCALAR_WRAPPERS.items():
        batch = evaluate_battery(cells, validate_battery(ALL_STATISTICS, GRID), two_sided)
        for name, fn in wrappers.items():
            assert np.isnan(batch[name]).any() and not np.isnan(batch[name]).all(), name
            scalar = np.array([scalar_or_nan(fn, t) for t in tables])
            assert np.array_equal(scalar, batch[name], equal_nan=True), f"{name}, two_sided={two_sided}"
            assert_bit_identical(scalar, batch[name])


RHO_NAMES = CorrelationTriple._fields  # the order of batch_correlations
Z_SCORES = {"Z0": 0.0, "Z_HALF": 0.5, "Z1": 1.0}


def test_scalar_components_are_bit_identical_to_the_registry_values_they_name():
    # each component is the value its name stands for: Z_x from trend_statistic
    # (MAXGRID's off-family scores are named Z@x), AA and HWD from the one-row
    # battery, a MERT's rho from the batch correlations
    rng = np.random.default_rng(12)
    cells = rng.integers(0, 40, size=(400, 6)).astype(float)
    cells[rng.random(400) < 0.5] += 0.5
    rhos = batch_correlations(cells)
    scalars = (max2, lambda t: max2(t, False, pair=(0.0, 0.5)), max3, lambda t: max_grid(t, GRID),
               mert_statistic, mert_rec_add, product_test, tmax)
    seen = set()
    for i, row in enumerate(cells):
        t = GenotypeTable(*row)
        for fn in scalars:
            try:
                components = fn(t).components
            except (ZeroVariance, MonomorphicSample):
                continue
            for name, got in components.items():
                if name in ("AA", "HWD"):
                    want = evaluate_battery(row, (name,))[name][0]
                elif name in RHO_NAMES:
                    want = rhos[RHO_NAMES.index(name)][i]
                else:
                    want = trend_statistic(t, Z_SCORES[name] if name in Z_SCORES else float(name[2:]))
                seen.add(name)
                assert got == want and np.signbit(got) == np.signbit(want), (name, row)
    assert seen == {*Z_SCORES, "Z@0.2", "Z@0.7", "AA", "HWD", "rho_0_half", "rho_0_1"}


def test_composites_worked_example(worked_table):
    tp = product_test(worked_table)
    tm_ = tmax(worked_table)
    assert tp.value == pytest.approx(100.0, abs=1e-3)
    assert tm_.value == pytest.approx(26.6667, abs=5e-5)
    assert tp.components["AA"] == tm_.components["AA"]


def test_product_zero_when_cases_in_hwe():
    # cases exactly at HWE, controls far off: the HWD factor kills T_P
    t = GenotypeTable(25, 50, 25, 60, 20, 20)
    assert product_test(t).value == pytest.approx(0.0, abs=1e-12)
    assert chisq_allele(t) > 0


def test_composites_zero_for_identical_hwe_rows():
    t = GenotypeTable(25, 50, 25, 25, 50, 25)
    assert product_test(t).value == pytest.approx(0.0, abs=1e-12)
    assert tmax(t).value == pytest.approx(0.0, abs=1e-12)
