import warnings

import numpy as np
import pytest

from trendmax import (
    EmptyRow,
    InputError,
    NegativeCell,
    new_genotype_table,
    parse_table_record,
)
from trendmax.battery import ALL_STATISTICS, evaluate_battery, validate_battery
from trendmax.robust import batch_correlations


def test_negative_cell_rejected():
    with pytest.raises(NegativeCell):
        new_genotype_table(-1, 2, 3, 4, 5, 6)


def test_empty_row_rejected():
    with pytest.raises(EmptyRow):
        new_genotype_table(0, 0, 0, 1, 1, 1)
    with pytest.raises(EmptyRow):
        new_genotype_table(1, 1, 1, 0, 0, 0)


def test_parse_record_whitespace_and_csv():
    assert parse_table_record("10 20 30 30 20 10") == (10, 20, 30, 30, 20, 10)
    assert parse_table_record("10,20,30,30,20,10") == (10, 20, 30, 30, 20, 10)


def test_parse_record_rejects_short_and_noninteger():
    with pytest.raises(InputError):
        parse_table_record("1 2")
    with pytest.raises(InputError):
        parse_table_record("1 2 3 4 5 x")
    with pytest.raises(InputError):
        parse_table_record("1.5 2 3 4 5 6")


@pytest.mark.parametrize("field", ["inf", "-inf", "nan", "1e400"])
def test_parse_record_names_a_non_finite_field(field):
    with pytest.raises(InputError, match=rf"^field 6 \('{field}'\) is not a finite integer count$"):
        parse_table_record(f"1 2 3 4 5 {field}")


@pytest.mark.parametrize("value, shown", [(float("inf"), "inf"), (-float("inf"), "-inf"), (float("nan"), "nan")])
def test_a_cell_that_is_not_finite_is_an_input_error(value, shown):
    with pytest.raises(InputError, match=f"^cell value {shown} is not finite$") as info:
        new_genotype_table(1, 2, value, 4, 5, 6)
    assert info.type is InputError


def test_a_table_is_a_tuple_of_six_floats():
    for t in (new_genotype_table(10, 20, 30, 30, 20, 10), parse_table_record("10 20 30 30 20 10")):
        assert type(t) is tuple and len(t) == 6 and all(type(c) is float for c in t)


BOUND = 2**51  # below it every cell, margin and +1/2-corrected cell of whole counts is an exact float


@pytest.mark.parametrize("cells", [
    (BOUND - 6, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, BOUND - 6),
    (BOUND // 2 - 1, 0, 0, 0, 0, BOUND // 2),
    ((BOUND - 1) // 6,) * 6,
    (BOUND // 4, BOUND // 4 - 1, 0, 0, BOUND // 4, BOUND // 4),
    (BOUND - 2, 0, 0, 1, 0, 0),
    (BOUND // 3, 0, BOUND // 3, BOUND // 3 - 2, 1, 0),
])
def test_a_total_just_below_2_to_the_51_is_accepted_and_no_kernel_warns(cells):
    t = parse_table_record(" ".join(map(str, cells)))
    assert t == new_genotype_table(*cells) == tuple(map(float, cells)) and sum(t) == sum(cells) < BOUND
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shift in (0.0, 0.5):
            batch = np.array([t]) + shift
            evaluate_battery(batch, validate_battery((*ALL_STATISTICS, "MAX[0:0.3:0.5:1]")))
            batch_correlations(batch)


@pytest.mark.parametrize("cells", [
    (BOUND - 5, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, BOUND - 5),
    (BOUND // 2, 0, 0, 0, 0, BOUND // 2),
    (1e308, 1e308, 0, 1, 1, 1),
])
def test_a_total_of_2_to_the_51_or_more_is_rejected(cells):
    with pytest.raises(InputError, match=r"^table total \S+ is not below 2\*\*51 \(2,251,799,813,685,248\)$"):
        new_genotype_table(*cells)
    with pytest.raises(InputError, match="is not below 2"):
        parse_table_record(" ".join(map(str, cells)))


def test_a_count_that_a_float_cannot_hold_is_an_input_error():
    # 2**53 + 1 parses as the even 2**53, which the total bound rejects
    with pytest.raises(InputError, match="is not below 2"):
        parse_table_record("9007199254740993 0 0 1 1 1")
    with pytest.raises(InputError, match="^cell value is too large for a float$"):
        new_genotype_table(1, 1, 1, 10**400, 1, 1)
