import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trendmax import (
    EmptyRow,
    InputError,
    NegativeCell,
    apply_continuity_correction,
    new_genotype_table,
    parse_table_record,
)

cell = st.integers(min_value=0, max_value=200)


def test_margins_recomputed():
    t = new_genotype_table(10, 20, 30, 30, 20, 10)
    assert (t.r, t.s, t.n) == (60, 60, 120)
    assert (t.n0, t.n1, t.n2) == (40, 40, 40)


def test_symmetric_margins():
    t = new_genotype_table(25, 50, 25, 25, 50, 25)
    assert (t.n0, t.n1, t.n2) == (50, 100, 50)


def test_negative_cell_rejected():
    with pytest.raises(NegativeCell):
        new_genotype_table(-1, 2, 3, 4, 5, 6)


def test_empty_row_rejected():
    with pytest.raises(EmptyRow):
        new_genotype_table(0, 0, 0, 1, 1, 1)
    with pytest.raises(EmptyRow):
        new_genotype_table(1, 1, 1, 0, 0, 0)


def test_correction_shifts_cells():
    t = new_genotype_table(0, 1, 2, 3, 0, 0)
    c = apply_continuity_correction(t)
    assert c.cells() == (0.5, 1.5, 2.5, 3.5, 0.5, 0.5)


def test_correction_zero_is_identity():
    t = new_genotype_table(3, 4, 5, 6, 7, 8)
    assert apply_continuity_correction(t, 0.0) == t


def test_correction_total():
    t = apply_continuity_correction(new_genotype_table(10, 20, 30, 30, 20, 10))
    assert t.n == 123


@given(cell, cell, cell, cell, cell, cell,
       st.floats(0, 2, allow_nan=False), st.floats(0, 2, allow_nan=False))
def test_correction_composes_additively(r0, r1, r2, s0, s1, s2, a, b):
    if r0 + r1 + r2 == 0 or s0 + s1 + s2 == 0:
        return
    t = new_genotype_table(r0, r1, r2, s0, s1, s2)
    once = apply_continuity_correction(t, a + b)
    twice = apply_continuity_correction(apply_continuity_correction(t, a), b)
    assert np.allclose(once.cells(), twice.cells())


def test_parse_record_whitespace_and_csv():
    assert parse_table_record("10 20 30 30 20 10").cells() == (10, 20, 30, 30, 20, 10)
    assert parse_table_record("10,20,30,30,20,10").cells() == (10, 20, 30, 30, 20, 10)


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
