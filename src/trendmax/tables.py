"""Case-control genotype count tables.

The basic data object is a 2x3 table of genotype counts (NN, NM, MM) for
cases and controls, held as six cells (r0, r1, r2, s0, s1, s2); a batch of
N tables is one (N, 6) array (:func:`cell_array`). Cells are reals so that
continuity-corrected tables flow through every statistic unchanged;
ingestion of raw data checks integrality separately, and a table's total
must be below ``MAX_TOTAL``.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import EmptyRow, InputError, NegativeCell


# Below this total every cell, margin and +1/2-corrected cell of a table of whole counts is an exact float.
MAX_TOTAL = 2**51


def new_genotype_table(r0, r1, r2, s0, s1, s2) -> tuple[float, ...]:
    """Six nonnegative counts as a validated table (r0, r1, r2, s0, s1, s2) of floats."""
    cells = []
    for c in (r0, r1, r2, s0, s1, s2):
        try:
            c = float(c)
        except OverflowError:
            raise InputError("cell value is too large for a float") from None
        if not math.isfinite(c):
            raise InputError(f"cell value {c!r} is not finite")
        if c < 0:
            raise NegativeCell(f"negative cell value {c!r}")
        cells.append(c + 0.0)  # -0.0 + 0.0 is 0.0, so a "-0" cell hashes as "0" does
    if sum(cells[:3]) <= 0:
        raise EmptyRow("case row is entirely zero")
    if sum(cells[3:]) <= 0:
        raise EmptyRow("control row is entirely zero")
    if (total := sum(cells)) >= MAX_TOTAL:
        raise InputError(f"table total {total:g} is not below 2**51 ({MAX_TOTAL:,})")
    return tuple(cells)


def parse_table_record(text: str) -> tuple[float, ...]:
    """Parse one record of six nonnegative integers: r0 r1 r2 s0 s1 s2.

    Fields may be separated by commas or whitespace. Raw ingested tables
    must be integer-valued.
    """
    fields = [f for f in text.replace(",", " ").split() if f]
    if len(fields) != 6:
        raise InputError(
            f"expected 6 genotype counts (r0 r1 r2 s0 s1 s2), got {len(fields)}: {text!r}"
        )
    values = []
    for i, f in enumerate(fields):
        try:
            v = float(f)
        except ValueError:
            raise InputError(f"field {i + 1} ({f!r}) is not a number") from None
        if not v.is_integer():  # also inf and nan
            raise InputError(f"field {i + 1} ({f!r}) is not a finite integer count")
        values.append(v)
    return new_genotype_table(*values)


def cell_array(cells) -> np.ndarray:
    """``cells`` as an (N, 6) float array, one row r0 r1 r2 s0 s1 s2 per table; other shapes raise, never reshaped."""
    cells = np.asarray(cells, dtype=float)
    if cells.ndim != 2 or cells.shape[1] != 6:
        raise InputError(f"expected an (N, 6) array of tables, got shape {cells.shape}")
    return cells


def tables_hash(cells) -> str:
    """Stable hash of a batch of tables' cells in order, for output provenance headers."""
    return hashlib.sha256(json.dumps(cell_array(cells).tolist()).encode()).hexdigest()[:16]
