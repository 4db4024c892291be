"""Case-control genotype count tables.

The basic data object is a 2x3 table of genotype counts (NN, NM, MM) for
cases and controls. Cells are stored as reals so that continuity-corrected
tables flow through every statistic unchanged; ingestion of raw data
checks integrality separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRow, InputError, NegativeCell


@dataclass(frozen=True)
class GenotypeTable:
    """Genotype counts for cases (r0, r1, r2) and controls (s0, s1, s2).

    Margins are always recomputed from the cells, never stored.
    """

    r0: float
    r1: float
    r2: float
    s0: float
    s1: float
    s2: float

    @property
    def r(self) -> float:
        return self.r0 + self.r1 + self.r2

    @property
    def s(self) -> float:
        return self.s0 + self.s1 + self.s2

    @property
    def n0(self) -> float:
        return self.r0 + self.s0

    @property
    def n1(self) -> float:
        return self.r1 + self.s1

    @property
    def n2(self) -> float:
        return self.r2 + self.s2

    @property
    def n(self) -> float:
        return self.r + self.s

    def cells(self) -> tuple[float, ...]:
        return (self.r0, self.r1, self.r2, self.s0, self.s1, self.s2)

    def to_array(self) -> np.ndarray:
        """Cells as a length-6 float array in order r0, r1, r2, s0, s1, s2."""
        return np.array(self.cells(), dtype=float)

    def is_integral(self, tol: float = 1e-9) -> bool:
        return all(abs(c - round(c)) <= tol for c in self.cells())

    def pooled_proportions(self) -> tuple[float, float, float]:
        """Genotype proportions n_i / n pooled over cases and controls."""
        n = self.n
        return (self.n0 / n, self.n1 / n, self.n2 / n)


def new_genotype_table(r0, r1, r2, s0, s1, s2) -> GenotypeTable:
    """Build a validated genotype table from six nonnegative counts."""
    cells = (r0, r1, r2, s0, s1, s2)
    for c in cells:
        c = float(c)
        if not math.isfinite(c):
            raise InputError(f"cell value {c!r} is not finite")
        if c < 0:
            raise NegativeCell(f"negative cell value {c!r}")
    if r0 + r1 + r2 <= 0:
        raise EmptyRow("case row is entirely zero")
    if s0 + s1 + s2 <= 0:
        raise EmptyRow("control row is entirely zero")
    return GenotypeTable(*(float(c) for c in cells))


def apply_continuity_correction(table: GenotypeTable, delta: float = 0.5) -> GenotypeTable:
    """Add ``delta`` to every cell; margins follow automatically."""
    if delta < 0:
        raise InputError("correction delta must be nonnegative")
    return GenotypeTable(*(c + delta for c in table.cells()))


def parse_table_record(text: str) -> GenotypeTable:
    """Parse one record of six nonnegative integers: r0 r1 r2 s0 s1 s2.

    Fields may be separated by commas or whitespace. Raw ingested tables
    must be integer-valued; use :func:`apply_continuity_correction`
    afterwards if a corrected table is wanted.
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
