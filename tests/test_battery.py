import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trendmax.battery
from trendmax import InputError, evaluate_single
from trendmax.battery import (
    ALL_STATISTICS,
    CHUNK_SIZE,
    DEFAULT_BATTERY,
    DEFAULT_GRID,
    STATISTICS,
    Statistic,
    evaluate_battery,
    max_decided,
    validate_battery,
)
from trendmax.errors import UnknownStatistic
from trendmax.trend import trend_sums, trend_values

from conftest import count_kernel_passes, max_of, random_tables

GRID = (0.0, 0.1, 0.25, 0.5, 0.6, 0.9, 1.0)
MAX_GRID = max_of(GRID)
ALL = (*ALL_STATISTICS, MAX_GRID)


def raw_tables(n: int, seed: int) -> np.ndarray:
    """Uncorrected small tables: zero cells and undefined statistics are common."""
    return random_tables(n, seed=seed, max_count=4, corrected=False)


@pytest.mark.parametrize("two_sided", [True, False])
def test_statistic_alone_equals_statistic_in_full_battery(two_sided):
    cells = np.concatenate([random_tables(300, seed=201), raw_tables(300, seed=202)])
    full = evaluate_battery(cells, validate_battery(ALL), two_sided)
    assert np.isnan(full["MAX3"]).any()
    for name in ALL:
        alone = evaluate_battery(cells, validate_battery((name,)), two_sided)[name]
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
    values = evaluate_battery(cells, validate_battery(("MAX3", max_of(grid))), two_sided)
    max3, maxgrid = values["MAX3"], values[max_of(grid)]
    defined = ~np.isnan(max3)
    assert np.all(maxgrid[defined] >= max3[defined])
    assert np.isnan(maxgrid[~defined]).all()


def test_empty_grid_rejected():
    with pytest.raises(InputError):
        evaluate_battery(random_tables(5, seed=203), ("MAX[]",))


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
    battery = validate_battery(ALL)
    c_values = evaluate_battery(np.ascontiguousarray(cells), battery, two_sided)
    f_values = evaluate_battery(np.asfortranarray(cells), battery, two_sided)
    single = [evaluate_battery([row], battery, two_sided) for row in cells]
    for name in ALL:
        assert_bit_identical(c_values[name], f_values[name], name)
        assert_bit_identical(c_values[name], np.concatenate([v[name] for v in single]), name)


def test_evaluate_battery_scores_chunk_size_rows_per_kernel_pass(monkeypatch):
    # a batch of CHUNK_SIZE + 1 tables, undefined statistics among them
    cells = np.concatenate([random_tables(CHUNK_SIZE // 2, seed=205),
                            raw_tables(CHUNK_SIZE // 2 + 1, seed=206)])
    battery = validate_battery(ALL)
    slices = [evaluate_battery(cells[:CHUNK_SIZE], battery), evaluate_battery(cells[CHUNK_SIZE:], battery)]
    passes = count_kernel_passes(monkeypatch)
    got = evaluate_battery(cells, battery)
    assert passes == [CHUNK_SIZE, 1]
    assert list(got) == list(battery)
    for name in battery:
        assert_bit_identical(got[name], np.concatenate([values[name] for values in slices]), name)


def test_a_bare_string_is_not_a_battery():
    # a string is a sequence of its characters, so it would resolve as 'M', 'A', ...
    message = re.escape("battery must be a sequence of statistic names, such as ('MAX3',), not the string 'MAX3'")
    for call in (lambda: validate_battery("MAX3"), lambda: evaluate_battery(np.ones((2, 6)), "MAX3")):
        with pytest.raises(InputError, match=f"^{message}$") as excinfo:
            call()
        assert excinfo.type is InputError


@pytest.mark.parametrize("battery, message", [
    (None, "battery must be a sequence of statistic names, got None"),
    (3, "battery must be a sequence of statistic names, got 3"),
    ([["Z0"]], "a statistic name must be a string, got ['Z0']"),
    (("MAX3", None), "a statistic name must be a string, got None"),
])
def test_a_battery_that_is_not_a_sequence_of_names_is_an_input_error(battery, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$") as excinfo:
        validate_battery(battery)
    assert excinfo.type is InputError


@pytest.mark.parametrize("battery, message", [
    (("Z0", "MAX3", "Z0"), "duplicate statistic 'Z0' in battery"),
    (("MAX[0:1]", "MAX[0:1]"), "duplicate statistic 'MAX[0:1]' in battery"),
    ((), "battery must contain at least one statistic"),
    ({}, "battery must contain at least one statistic"),
])
def test_a_battery_names_each_statistic_once_and_at_least_one(battery, message):
    for call in (lambda: validate_battery(battery), lambda: evaluate_battery(np.ones((2, 6)), battery)):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$") as excinfo:
            call()
        assert excinfo.type is InputError


@pytest.mark.parametrize("grid", [(0.0, 1.5), (0.0, np.nan), (-0.1,), (np.inf,)])
def test_grid_scores_outside_unit_interval_rejected(grid):
    with pytest.raises(InputError, match="grid scores"):
        evaluate_battery(random_tables(5, seed=204), (max_of(grid),))


def test_validate_battery_resolves_names_to_their_scores():
    battery = validate_battery(("MAX3", "MAXGRID", "CHI2_2DF", "MAX[0:0.5:1]"))
    assert list(battery) == ["MAX3", "MAXGRID", "CHI2_2DF", "MAX[0:0.5:1]"]
    assert {name: spec.scores for name, spec in battery.items()} == {
        "MAX3": (0.0, 0.5, 1.0), "MAXGRID": DEFAULT_GRID, "CHI2_2DF": (), "MAX[0:0.5:1]": (0.0, 0.5, 1.0)}
    # a bracket name is a maximum over its scores, with no law
    assert battery["MAX[0:0.5:1]"] == Statistic(max_decided, (0.0, 0.5, 1.0))
    assert battery["MAXGRID"] == Statistic(max_decided, DEFAULT_GRID)


def test_a_resolved_battery_keeps_its_grid():
    battery = validate_battery((MAX_GRID, "Z1"))
    # a mapping resolves by its names, and the names carry the scores
    assert validate_battery(battery) == battery
    assert validate_battery(battery)[MAX_GRID].scores == GRID
    cells = random_tables(20, seed=206)
    assert_bit_identical(evaluate_battery(cells, battery)[MAX_GRID],
                         evaluate_battery(cells, validate_battery((MAX_GRID,)))[MAX_GRID], MAX_GRID)


@pytest.mark.parametrize("scores", [(), (0.0, 1.5), (0.3, -1.0), ("a",)])
def test_a_mapping_with_bad_grid_scores_is_an_input_error(scores):
    # a mapping resolves by its names, whatever its values, so a MAX name's scores are checked
    name = f"MAX[{':'.join(map(str, scores))}]"
    with pytest.raises(InputError, match=rf"^{re.escape(name)}: .*grid"):
        validate_battery({"MAX3": STATISTICS["MAX3"], name: STATISTICS["MAXGRID"]})


@pytest.mark.parametrize("name", ["MAX[0", "0.5]", "MAX", "max[0:1]", "MAX[0:1] ", "MAX(0:1)"])
def test_a_name_that_is_neither_a_registry_name_nor_a_bracket_maximum_is_unknown(name):
    message = rf"^unknown statistic {re.escape(repr(name))}; known: .*MAX\[x1:"
    with pytest.raises(UnknownStatistic, match=message):
        validate_battery(("MAX3", name))


@pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 1.0 / 3.0, 1.0])
def test_max_of_one_score_is_the_signed_trend_kernel(x):
    # one-sided MAX[x] is Z_x itself, NaN where undefined; two-sided it is |Z_x|
    cells = np.concatenate([random_tables(200, seed=207), raw_tables(200, seed=208)])
    z = trend_values(trend_sums(cells), x)
    assert np.isnan(z).any()
    assert_bit_identical(evaluate_battery(cells, (max_of((x,)),), False)[max_of((x,))], z, "one-sided")
    assert_bit_identical(evaluate_battery(cells, (max_of((x,)),), True)[max_of((x,))], np.abs(z), "two-sided")


@pytest.mark.parametrize("two_sided", [True, False])
def test_maxgrid_is_the_maximum_over_the_eleven_tenths(two_sided):
    cells = np.concatenate([random_tables(500, seed=209), raw_tables(500, seed=210)])
    name = "MAX[0:0.1:0.2:0.3:0.4:0.5:0.6:0.7:0.8:0.9:1]"
    values = evaluate_battery(cells, ("MAXGRID", name), two_sided)
    assert np.isnan(values["MAXGRID"]).any()
    assert_bit_identical(values["MAXGRID"], values[name], name)
    for table in cells[:50]:
        assert np.float64(evaluate_single(table, "MAXGRID", two_sided)).tobytes() == \
            np.float64(evaluate_single(table, name, two_sided)).tobytes()


def test_default_battery_is_every_statistic_but_the_grid_maximum():
    assert ALL_STATISTICS == tuple(STATISTICS)
    assert set(ALL_STATISTICS) - set(DEFAULT_BATTERY) == {"MAXGRID"}
    assert DEFAULT_BATTERY == tuple(name for name in ALL_STATISTICS if name != "MAXGRID")
    # the default is written out, so a new statistic joins it only by name
    assert DEFAULT_BATTERY == ("Z0", "Z_HALF", "Z1", "MERT", "MERT_REC_ADD", "MAX2", "MAX2_REC_ADD", "MAX3",
                               "CHI2_2DF", "AA", "HWD", "T_P", "T_MAX")


def test_shared_kernels_run_once_and_are_looked_up_on_the_module(monkeypatch):
    # a wrapper installed on the module must see every call (the benchmark
    # tracer relies on it), and statistics sharing a kernel share one call
    calls = []

    def counting(name, kernel):
        def wrapper(cells):
            calls.append(name)
            return kernel(cells)
        return wrapper

    for name in ("allele_chisq_values", "hwd_values", "batch_correlations", "chi2df_values"):
        monkeypatch.setattr(trendmax.battery, name, counting(name, getattr(trendmax.battery, name)))
    evaluate_battery(random_tables(20, seed=205), validate_battery(ALL))
    assert sorted(calls) == ["allele_chisq_values", "batch_correlations", "chi2df_values", "hwd_values"]


@pytest.mark.parametrize("name, two_sided, table, error", [
    ("MAX3", True, (3, 4, 5, 0, 0, 0), None),
    ("MERT_REC_ADD", False, (0, 4, 5, 0, 3, 2), None),
    ("CHI2_2DF", True, (1, 2, 0, 3, 4, 0), None),
    ("T_MAX", True, (0, 0, 9, 3, 4, 5), None),
    # a table is any six cells: a tuple of floats, a list, a 1-D array
    ("MAX3", True, (3.0, 4.0, 5.0, 0.0, 0.0, 0.0), None),
    ("MERT_REC_ADD", False, [0, 4, 5, 0, 3, 2], None),
    ("CHI2_2DF", True, np.array([1.0, 2.0, 0.0, 3.0, 4.0, 0.0]), None),
    ("T_MAX", True, (0, 0, 9, 3, 4), InputError),  # five cells are no table
    ("MAX3", True, (1, 2, 3, 4, 5, 6, 7), InputError),  # nor are seven
])
def test_evaluate_single_nan_where_undefined(name, two_sided, table, error):
    if error is None:
        assert np.isnan(evaluate_single(table, name, two_sided))
    else:
        with pytest.raises(error, match=r"expected an \(N, 6\) array of tables"):
            evaluate_single(table, name, two_sided)

