import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trendmax import evaluate_single
from trendmax.battery import ALL_STATISTICS, evaluate_battery, validate_battery
from trendmax.classical import allele_chisq_values, chi2df_values, hwd_values
from trendmax.robust import batch_correlations

from conftest import assert_bit_identical, max_of, random_tables


def pearson_2x2_oracle(table) -> float:
    """Brute-force Pearson chi-square on the collapsed allele table of six cells r0 r1 r2 s0 s1 s2."""
    # two alleles per individual: NN gives two N, NM one of each, MM two M
    r0, r1, r2, s0, s1, s2 = table
    obs = np.array([[2 * r0 + r1, r1 + 2 * r2],
                    [2 * s0 + s1, s1 + 2 * s2]])
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


def chisq_2df(table) -> float:
    return evaluate_single(table, "CHI2_2DF")


def chisq_allele(table) -> float:
    return evaluate_single(table, "AA")


def test_chisq_2df_worked_example(worked_table):
    assert chisq_2df(worked_table) == pytest.approx(20.0)


def test_chisq_2df_zero_on_identical_rows():
    assert chisq_2df((5, 6, 7, 5, 6, 7)) == pytest.approx(0.0)


def test_chisq_2df_scales_linearly(worked_table):
    doubled = tuple(2 * c for c in worked_table)
    assert chisq_2df(doubled) == pytest.approx(2 * chisq_2df(worked_table))


def test_chisq_2df_zero_margin():
    assert np.isnan(chisq_2df((1, 2, 0, 3, 4, 0)))


def test_chisq_allele_worked_example(worked_table):
    assert chisq_allele(worked_table) == pytest.approx(26.6667, abs=5e-5)


def test_chisq_allele_zero_on_identical_rows():
    assert chisq_allele((5, 6, 7, 5, 6, 7)) == pytest.approx(0.0)


def test_chisq_allele_scales_linearly(worked_table):
    doubled = tuple(2 * c for c in worked_table)
    assert chisq_allele(doubled) == pytest.approx(2 * chisq_allele(worked_table))


def test_chisq_allele_matches_bruteforce_pearson():
    cells = random_tables(1000, seed=301)
    batch = allele_chisq_values(cells)
    for row, expected in zip(cells[:250], batch[:250]):
        assert chisq_allele(row) == pytest.approx(pearson_2x2_oracle(row), abs=1e-10)
        assert expected == pytest.approx(pearson_2x2_oracle(row), abs=1e-10)


def hwd(case_row) -> float:
    """The registry's HWD chi-square of one table with these cases."""
    return evaluate_single((*case_row, 1, 1, 1), "HWD")


def test_chisq_hwd_exact_proportions():
    assert hwd((25, 50, 25)) == pytest.approx(0.0)


def test_chisq_hwd_worked_example():
    assert hwd((10, 20, 30)) == pytest.approx(3.75)


def test_chisq_hwd_monomorphic():
    assert np.isnan(hwd((0, 0, 60))) and np.isnan(hwd((60, 0, 0)))
    for name in ("HWD", "T_P", "T_MAX"):
        assert np.isnan(evaluate_single((0, 0, 60, 20, 20, 20), name))


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


GRID = (0.0, 0.2, 0.5, 0.7, 1.0)
MAX_GRID = max_of(GRID)


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
    for two_sided in (True, False):
        batch = evaluate_battery(cells, validate_battery((*ALL_STATISTICS, MAX_GRID)), two_sided)
        for name in batch:
            assert np.isnan(batch[name]).any() and not np.isnan(batch[name]).all(), name
            scalar = np.array([evaluate_single(t, name, two_sided) for t in cells])
            assert np.array_equal(scalar, batch[name], equal_nan=True), f"{name}, two_sided={two_sided}"
            assert_bit_identical(scalar, batch[name])


# The composites with the sidedness each is checked at.
COMPOSITE_SIDES = {"MAX2": True, "MAX2_REC_ADD": False, "MAX3": True, MAX_GRID: True,
                   "MERT": False, "MERT_REC_ADD": False, "T_P": True, "T_MAX": True}


def test_scalar_components_are_bit_identical_to_the_registry_values_they_name():
    # each composite is its combiner applied to the one-table registry values
    # it names: signed Z_x (MAX[x], one-sided), a MERT's rho from the batch
    # correlations, AA and HWD; NaN wherever one of them is NaN
    rng = np.random.default_rng(12)
    cells = rng.integers(0, 40, size=(400, 6)).astype(float)
    cells[rng.random(400) < 0.5] += 0.5
    rho_0_half, rho_0_1, _ = batch_correlations(cells)
    defined = dict.fromkeys(COMPOSITE_SIDES, 0)
    for i, row in enumerate(cells):
        z = {x: evaluate_single(row, max_of((x,)), False) for x in GRID}
        aa, hwd_ = evaluate_single(row, "AA"), evaluate_single(row, "HWD")
        want = {
            "MAX2": np.maximum(abs(z[0.0]), abs(z[1.0])),
            "MAX2_REC_ADD": np.maximum(z[0.0], z[0.5]),
            "MAX3": np.maximum.reduce([abs(z[0.0]), abs(z[0.5]), abs(z[1.0])]),
            MAX_GRID: np.maximum.reduce([abs(z[x]) for x in GRID]),
            "MERT": (z[0.0] + z[1.0]) / np.sqrt(2.0 * (1.0 + rho_0_1[i])),
            "MERT_REC_ADD": (z[0.0] + z[0.5]) / np.sqrt(2.0 * (1.0 + rho_0_half[i])),
            "T_P": aa * hwd_,
            "T_MAX": np.maximum(aa, hwd_),
        }
        for name, two_sided in COMPOSITE_SIDES.items():
            got = evaluate_single(row, name, two_sided)
            assert_bit_identical(got, float(want[name]))
            defined[name] += not np.isnan(got)
    assert all(count > 0 for count in defined.values()), defined


def test_composites_worked_example(worked_table):
    tp = evaluate_single(worked_table, "T_P")
    tm_ = evaluate_single(worked_table, "T_MAX")
    assert tp == pytest.approx(100.0, abs=1e-3)
    assert tm_ == pytest.approx(26.6667, abs=5e-5)
    aa, hwd_ = evaluate_single(worked_table, "AA"), evaluate_single(worked_table, "HWD")
    assert tp == aa * hwd_ and tm_ == max(aa, hwd_) == aa


def test_product_zero_when_cases_in_hwe():
    # cases exactly at HWE, controls far off: the HWD factor kills T_P
    t = (25, 50, 25, 60, 20, 20)
    assert evaluate_single(t, "T_P") == pytest.approx(0.0, abs=1e-12)
    assert chisq_allele(t) > 0


def test_composites_zero_for_identical_hwe_rows():
    t = (25, 50, 25, 25, 50, 25)
    assert evaluate_single(t, "T_P") == pytest.approx(0.0, abs=1e-12)
    assert evaluate_single(t, "T_MAX") == pytest.approx(0.0, abs=1e-12)
