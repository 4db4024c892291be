"""Cochran-Armitage trend statistics over genotype scores (0, x, 1).

For scores x = (x0, x1, x2) assigned to (NN, NM, MM) the statistic is

    Z = sqrt(n) * sum_i x_i (s r_i - r s_i)
        / sqrt( r s [ n sum_i x_i^2 n_i - (sum_i x_i n_i)^2 ] )

which is asymptotically N(0, 1) under the null of no association. The
statistic is invariant to affine transformations of the scores, so the
one-parameter family (0, x, 1) with x in [0, 1] covers every ordered
scoring. x = 0, 1/2, 1 are optimal for the recessive, additive and
dominant models respectively.

Sufficient sums
---------------
With scores (0, x, 1) a table enters Z_x only through seven per-table
numbers, n, sqrt(n), r s, n1, n2 and u_i = s r_i - r s_i (i = 1, 2):

    Z_x = sqrt(n) (x u1 + u2) / sqrt( r s [ n (x^2 n1 + n2) - (x n1 + n2)^2 ] )

:func:`trend_sums` computes them once per batch, after which every score
costs a few B-vector operations. The result is bit-identical to the
general-score formula above evaluated with scores (0, x, 1): the sums
are formed with the same operations in the same order, the x_0 = 0 terms
of the general sums are exact zeros, and the remaining two-term sums are
rounded once either way, as (x*x)*n1 + n2, x*n1 + n2 and x*u1 + u2.
Tables whose variance term is not positive come back as NaN.

These are the kernels; the signed Z_x of one table is
``evaluate_single(table, f"MAX[{x}]", False)`` in :mod:`trendmax.battery`,
a one-score maximum.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InputError
from .population import canonical_model_kind

OPTIMAL_SCORES = {"recessive": 0.0, "additive": 0.5, "dominant": 1.0}


class TrendSums(NamedTuple):
    """Per-table sufficient sums for the trend family; each field has shape (...)."""

    n: np.ndarray
    sqrt_n: np.ndarray
    rs: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray


def trend_sums(cells: np.ndarray) -> TrendSums:
    """Sufficient sums of cells with shape (..., 6): columns r0, r1, r2, s0, s1, s2."""
    cells = np.asarray(cells, dtype=float)
    r = cells[..., 0:3].sum(axis=-1)
    s = cells[..., 3:6].sum(axis=-1)
    n = r + s
    r1, r2, s1, s2 = cells[..., 1], cells[..., 2], cells[..., 4], cells[..., 5]
    return TrendSums(
        n=n,
        sqrt_n=np.sqrt(n),
        rs=r * s,
        n1=r1 + s1,
        n2=r2 + s2,
        u1=s * r1 - r * s1,
        u2=s * r2 - r * s2,
    )


def trend_values(cells, x: float) -> np.ndarray:
    """Vectorized trend statistic with scores (0, x, 1).

    ``cells`` is either a cell array of shape (..., 6) or the
    :class:`TrendSums` of one; pass the sums to evaluate many scores on
    the same batch. Entries whose variance term is not positive are NaN.
    """
    sums = cells if isinstance(cells, TrendSums) else trend_sums(cells)
    x = float(x)
    total = x * sums.n1 + sums.n2  # squared as a product: a float64 scalar's ** 2 calls pow()
    var = sums.rs * (sums.n * ((x * x) * sums.n1 + sums.n2) - total * total)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = sums.sqrt_n * (x * sums.u1 + sums.u2) / np.sqrt(var)
        return np.where(var > 0, out, np.nan)


def optimal_score(kind: str) -> float:
    """Model-optimal middle score: 0 (recessive), 1/2 (additive), 1 (dominant)."""
    kind = canonical_model_kind(kind)
    if kind not in OPTIMAL_SCORES:
        raise InputError(f"no optimal score for model kind {kind!r}")
    return OPTIMAL_SCORES[kind]
