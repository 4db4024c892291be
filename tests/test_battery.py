import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendmax import InputError
from trendmax.battery import ALL_STATISTICS, evaluate_battery

from conftest import random_tables

GRID = (0.0, 0.1, 0.25, 0.5, 0.6, 0.9, 1.0)


def raw_tables(n: int, seed: int) -> np.ndarray:
    """Uncorrected small tables: zero cells and undefined statistics are common."""
    return random_tables(n, seed=seed, max_count=4, corrected=False)


@pytest.mark.parametrize("two_sided", [True, False])
def test_statistic_alone_equals_statistic_in_full_battery(two_sided):
    cells = np.concatenate([random_tables(300, seed=201), raw_tables(300, seed=202)])
    full = evaluate_battery(cells, ALL_STATISTICS, two_sided, GRID)
    assert np.isnan(full["MAX3"]).any()
    for name in ALL_STATISTICS:
        alone = evaluate_battery(cells, (name,), two_sided, GRID)[name]
        np.testing.assert_array_equal(alone, full[name], err_msg=name)


@given(
    st.lists(st.floats(0, 1, allow_nan=False), max_size=8),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_maxgrid_dominates_max3_when_grid_contains_its_scores(extra, two_sided, seed):
    grid = tuple(extra) + (1.0, 0.5, 0.0)
    cells = np.concatenate([random_tables(50, seed=seed), raw_tables(50, seed=seed + 1)])
    values = evaluate_battery(cells, ("MAX3", "MAXGRID"), two_sided, grid)
    max3, maxgrid = values["MAX3"], values["MAXGRID"]
    defined = ~np.isnan(max3)
    assert np.all(maxgrid[defined] >= max3[defined])
    assert np.isnan(maxgrid[~defined]).all()


def test_empty_grid_rejected():
    with pytest.raises(InputError):
        evaluate_battery(random_tables(5, seed=203), ("MAXGRID",), grid=())


def assert_bit_identical(a: np.ndarray, b: np.ndarray, name: str) -> None:
    assert np.array_equal(a, b, equal_nan=True), name
    assert np.array_equal(np.isnan(a), np.isnan(b)), name
    assert np.array_equal(np.signbit(a), np.signbit(b)), name


@given(
    st.lists(st.lists(st.integers(0, 6), min_size=6, max_size=6), min_size=1, max_size=40),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_battery_is_bit_identical_across_memory_layouts(rows, corrected, two_sided):
    cells = np.array(rows, dtype=float) + (0.5 if corrected else 0.0)
    c_values = evaluate_battery(np.ascontiguousarray(cells), ALL_STATISTICS, two_sided, GRID)
    f_values = evaluate_battery(np.asfortranarray(cells), ALL_STATISTICS, two_sided, GRID)
    single = [evaluate_battery(row, ALL_STATISTICS, two_sided, GRID) for row in cells]
    for name in ALL_STATISTICS:
        assert_bit_identical(c_values[name], f_values[name], name)
        assert_bit_identical(c_values[name], np.concatenate([v[name] for v in single]), name)


@pytest.mark.parametrize("grid", [(0.0, 1.5), (0.0, np.nan), (-0.1,), (np.inf,)])
def test_grid_scores_outside_unit_interval_rejected(grid):
    with pytest.raises(InputError, match="grid scores"):
        evaluate_battery(random_tables(5, seed=204), ("MAXGRID",), grid=grid)
