import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trendmax.trend
from trendmax import InputError, evaluate_single
from trendmax.trend import trend_sums, trend_values

from conftest import max_of, random_tables


def trend_statistic(table, x: float) -> float:
    """Signed Z_x of one table: MAX[x], one-sided."""
    return evaluate_single(table, max_of((x,)), False)


def general_trend_reference(cells: np.ndarray, scores) -> np.ndarray:
    """Trend statistic for arbitrary scores (x0, x1, x2), from the raw cells.

    This is the general-score formula evaluated directly, with (..., 3)
    temporaries and no sufficient sums; scores (0, x, 1) must reproduce
    ``trend_values`` bit for bit. Non-positive variance gives NaN.
    """
    cells = np.asarray(cells, dtype=float)
    x = np.asarray(scores, dtype=float)
    rr = cells[..., 0:3]
    ss = cells[..., 3:6]
    r = rr.sum(axis=-1)
    s = ss.sum(axis=-1)
    nn = rr + ss
    n = r + s
    num = np.sqrt(n) * ((x * (s[..., None] * rr - r[..., None] * ss)).sum(axis=-1))
    var = r * s * (n * (x * x * nn).sum(axis=-1) - (x * nn).sum(axis=-1) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / np.sqrt(var)
        return np.where(var > 0, out, np.nan)


def assert_bit_identical(got: np.ndarray, want: np.ndarray) -> None:
    """Same values, same NaN positions and same zero signs."""
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def score_test_oracle(cells: np.ndarray, x: float) -> np.ndarray:
    """First-principles 1-df score statistic for the trend alternative.

    U = sum x_i (r_i - r n_i / n) is the centered case score total;
    Var(U) = r (n - r) / n * Var_phat(X) with X the score variable under
    the pooled plug-in distribution phat_i = n_i / n. Z^2 = U^2 / Var(U).
    This takes a different algebraic route from the production formula.
    """
    cells = np.asarray(cells, dtype=float)
    scores = np.array([0.0, x, 1.0])
    rr, ss = cells[..., :3], cells[..., 3:]
    r = rr.sum(-1)
    n_cols = rr + ss
    n = n_cols.sum(-1)
    phat = n_cols / n[..., None]
    u = (scores * (rr - r[..., None] * phat)).sum(-1)
    mean = (scores * phat).sum(-1)
    var_score = (scores**2 * phat).sum(-1) - mean**2
    var_u = r * (n - r) / n * var_score
    return u**2 / var_u


def test_worked_example_values(worked_table):
    assert trend_statistic(worked_table, 1.0) == pytest.approx(3.8730, abs=5e-5)
    assert trend_statistic(worked_table, 0.0) == pytest.approx(3.8730, abs=5e-5)
    assert trend_statistic(worked_table, 0.5) == pytest.approx(4.4721, abs=5e-5)


def test_identical_rows_give_zero():
    t = (12, 7, 31, 12, 7, 31)
    for x in (0.0, 0.3, 0.5, 1.0):
        assert trend_statistic(t, x) == pytest.approx(0.0, abs=1e-12)


def test_score_outside_unit_interval_rejected(worked_table):
    for x in (1.5, -0.1, float("nan")):
        with pytest.raises(InputError):
            trend_statistic(worked_table, x)


def test_zero_variance_gives_nan():
    # all weight on genotype NN: every score vector is constant on the support
    t = (10, 0, 0, 5, 0, 0)
    assert np.isnan(trend_statistic(t, 0.5))
    # no cases at all
    assert np.isnan(trend_statistic((0, 0, 0, 5, 3, 2), 0.5))


def test_oracle_equivalence_on_random_tables():
    cells = random_tables(1000, seed=101)
    for x in (0.0, 0.25, 0.5, 1.0):
        z = trend_values(cells, x)
        chi = score_test_oracle(cells, x)
        assert np.allclose(z**2, chi, atol=1e-10, rtol=1e-10)


def test_affine_score_invariance_on_random_tables():
    cells = random_tables(300, seed=102)
    rng = np.random.default_rng(103)
    for _ in range(20):
        x = rng.uniform(0, 1)
        a = rng.uniform(-5, 5)
        b = rng.uniform(0.1, 5)
        base = trend_values(cells, x)
        shifted = general_trend_reference(cells, (a, a + b * x, a + b))
        assert np.allclose(base, shifted, atol=1e-10)


# Integer or half-integer cells (raw and continuity-corrected tables),
# with many zeros so that empty rows, empty columns and undefined
# statistics all occur.
cell_batches = st.lists(
    st.lists(st.one_of(st.just(0), st.integers(0, 400)), min_size=6, max_size=6),
    min_size=1,
    max_size=40,
)


@given(cell_batches, st.booleans(), st.floats(0, 1, allow_nan=False))
@example(  # empty table, no cases, one genotype only, MM empty (Z_0 undefined)
    [[0, 0, 0, 0, 0, 0], [0, 0, 0, 5, 3, 2], [10, 0, 0, 5, 0, 0], [4, 3, 0, 2, 6, 0]],
    False,
    0.3,
)
@settings(max_examples=200, deadline=None)
def test_kernel_bit_identical_to_general_reference(rows, corrected, x):
    cells = np.array(rows, dtype=float) + (0.5 if corrected else 0.0)
    sums = trend_sums(cells)
    for score in (0.0, 0.5, 1.0, x):
        want = general_trend_reference(cells, (0.0, score, 1.0))
        assert_bit_identical(trend_values(cells, score), want)
        assert_bit_identical(trend_values(sums, score), want)


def test_antisymmetry_under_row_swap():
    cells = random_tables(200, seed=104)
    swapped = cells[:, [3, 4, 5, 0, 1, 2]]
    for x in (0.0, 0.5, 1.0):
        assert np.allclose(trend_values(cells, x), -trend_values(swapped, x), atol=1e-12)


def test_continuity_in_x(worked_table):
    xs = np.linspace(0, 1, 201)
    vals = np.array([trend_statistic(worked_table, x) for x in xs])
    assert np.all(np.abs(np.diff(vals)) < 0.05)


def test_the_trend_kernels_import_nothing_from_the_package():
    # so that population, which owns the model scores, can import the kernels
    tree = ast.parse(Path(trendmax.trend.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert sorted(imported) == ["__future__", "numpy", "typing"]


def test_one_row_values_bit_identical_to_the_batch():
    # a float64 scalar's ** 2 calls pow(), which can differ in the last bit
    # from an array's square, so the kernel squares by multiplication; large
    # counts and off-family scores make the squared score total inexact
    cells = random_tables(5000, seed=105, max_count=2000)
    for x in (0.2, 0.3, 0.7, 0.123456):
        one_row = np.array([trend_values(row, x) for row in cells])
        assert_bit_identical(one_row, trend_values(cells, x))
