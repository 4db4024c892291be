import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trendmax import (
    GenotypeTable,
    MonomorphicSample,
    ZeroMargin,
    chisq_2df,
    chisq_allele,
    chisq_hwd,
    product_test,
    tmax,
    to_allele_table,
)
from trendmax.battery import evaluate_battery
from trendmax.classical import allele_chisq_values, chi2df_values, hwd_values

from conftest import assert_bit_identical, random_tables


def pearson_2x2_oracle(table: GenotypeTable) -> float:
    """Brute-force Pearson chi-square on the collapsed allele table."""
    a = to_allele_table(table)
    obs = np.array([[a.case_n, a.case_m], [a.ctrl_n, a.ctrl_m]])
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


def test_chisq_hwd_exact_proportions():
    assert chisq_hwd((25, 50, 25)) == pytest.approx(0.0)


def test_chisq_hwd_worked_example():
    assert chisq_hwd((10, 20, 30)) == pytest.approx(3.75)


def test_chisq_hwd_monomorphic():
    with pytest.raises(MonomorphicSample):
        chisq_hwd((0, 0, 60))
    with pytest.raises(MonomorphicSample):
        chisq_hwd((60, 0, 0))


def test_chisq_hwd_zero_iff_hwe_identity():
    rng = np.random.default_rng(302)
    for _ in range(200):
        row = rng.integers(1, 80, size=3).astype(float)
        stat = chisq_hwd(tuple(row))
        identity = abs(row[1] ** 2 - 4 * row[0] * row[2])
        if stat < 1e-9:
            assert identity < 1e-6 * max(1.0, row.prod())
        if identity == 0:
            assert stat == pytest.approx(0.0, abs=1e-9)


def scalar_or_nan(fn, *args) -> float:
    try:
        return fn(*args)
    except (ZeroMargin, MonomorphicSample):
        return np.nan


def test_scalar_composites_bit_identical_to_batch():
    # small counts give zero cells and monomorphic case rows; half of the
    # tables are shifted by the +1/2 correction
    rng = np.random.default_rng(0)
    cells = rng.integers(0, 40, size=(10_000, 6)).astype(float)
    cells[rng.random(10_000) < 0.5] += 0.5
    cells[rng.random((10_000, 6)) < 0.05] = 0.0
    hwd = hwd_values(cells[:, :3])
    batch = evaluate_battery(cells, ("HWD", "T_P", "T_MAX"))
    assert_bit_identical(batch["HWD"], hwd)
    assert np.isnan(hwd).any() and not np.isnan(hwd).all()
    for i, row in enumerate(cells):
        t = GenotypeTable(*row)
        assert_bit_identical(scalar_or_nan(chisq_hwd, row[:3]), hwd[i])
        assert_bit_identical(scalar_or_nan(lambda: product_test(t).value), batch["T_P"][i])
        assert_bit_identical(scalar_or_nan(lambda: tmax(t).value), batch["T_MAX"][i])


def test_composites_worked_example(worked_table):
    tp = product_test(worked_table)
    tm_ = tmax(worked_table)
    assert tp.value == pytest.approx(100.0, abs=1e-3)
    assert tm_.value == pytest.approx(26.6667, abs=5e-5)
    assert tp.parts["AA"] == tm_.parts["AA"]


def test_product_zero_when_cases_in_hwe():
    # cases exactly at HWE, controls far off: the HWD factor kills T_P
    t = GenotypeTable(25, 50, 25, 60, 20, 20)
    assert product_test(t).value == pytest.approx(0.0, abs=1e-12)
    assert chisq_allele(t) > 0


def test_composites_zero_for_identical_hwe_rows():
    t = GenotypeTable(25, 50, 25, 25, 50, 25)
    assert product_test(t).value == pytest.approx(0.0, abs=1e-12)
    assert tmax(t).value == pytest.approx(0.0, abs=1e-12)
