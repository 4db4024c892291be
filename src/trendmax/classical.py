"""Model-free comparison statistics, as batched kernels.

  * chi2df_values       - Pearson chi-square on the 2x3 genotype table (2 df)
  * allele_chisq_values - chi-square on the collapsed 2x2 allele table (1 df);
                          valid on its own only when both samples are in HWE
  * hwd_values          - chi-square for Hardy-Weinberg disequilibrium in cases

Their product T_P and maximum T_MAX have no usable asymptotic null
distribution, so significance comes from permutation or simulation. The
registry in :mod:`trendmax.battery` builds the statistics from these
kernels, for batches and for one table alike. Each kernel takes a batch
(..., 6) or one 1-D row; squares are products throughout, because a
float64 scalar's ``** 2`` calls pow(), which can differ in the last bit
from an array's square, and the one-row values must match the batch bit
for bit.
"""

from __future__ import annotations

import numpy as np


def chi2df_values(cells: np.ndarray) -> np.ndarray:
    """Vectorized 2-df Pearson chi-square; NaN where a margin is zero.

    Built one genotype column at a time from B-vectors. Sums fold left to right
    and squares are products, as in the (B, 3) broadcast form of the formula
    (a 3-term ``sum(axis=-1)``, ``** 2`` on arrays), so values match it bitwise.
    """
    cells = np.asarray(cells, dtype=float)
    r0, r1, r2, s0, s1, s2 = (cells[..., j] for j in range(6))
    r, s = r0 + r1 + r2, s0 + s1 + s2
    n = r + s
    ok = (r > 0) & (s > 0)
    stat = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for rj, sj in ((r0, s0), (r1, s1), (r2, s2)):
            nn = rj + sj
            ok &= nn > 0
            er, es = r * nn / n, s * nn / n
            dr, ds = rj - er, sj - es
            term = dr * dr / er + ds * ds / es
            stat = term if stat is None else stat + term
        return np.where(ok, stat, np.nan)


def allele_chisq_values(cells: np.ndarray) -> np.ndarray:
    """Vectorized allele-association chi-square on the collapsed 2x2 table."""
    cells = np.asarray(cells, dtype=float)
    r0, r1, r2 = cells[..., 0], cells[..., 1], cells[..., 2]
    s0, s1, s2 = cells[..., 3], cells[..., 4], cells[..., 5]
    r = r0 + r1 + r2
    s = s0 + s1 + s2
    n0, n1, n2 = r0 + s0, r1 + s1, r2 + s2
    n = r + s
    det = (2 * r0 + r1) * (s1 + 2 * s2) - (2 * s0 + s1) * (r1 + 2 * r2)
    denom = 4 * r * s * (2 * n0 + n1) * (n1 + 2 * n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = 2 * n * (det * det) / denom
        return np.where(denom > 0, stat, np.nan)


def hwd_values(case_cells: np.ndarray) -> np.ndarray:
    """Vectorized HWD chi-square from case rows (..., 3) or whole tables (..., 6).

    The allele frequency is estimated from the cases themselves; rows
    whose estimate hits 0 or 1 come back as NaN.
    """
    rr = np.asarray(case_cells, dtype=float)[..., 0:3]
    r = rr.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (rr[..., 1] + 2 * rr[..., 2]) / (2 * r)
        q = 1.0 - p
        e0 = r * q * q
        e1 = 2 * r * p * q
        e2 = r * p * p
        d0, d1, d2 = rr[..., 0] - e0, rr[..., 1] - e1, rr[..., 2] - e2
        stat = d0 * d0 / e0 + d1 * d1 / e1 + d2 * d2 / e2
        ok = (r > 0) & (p > 0) & (p < 1)
        return np.where(ok, stat, np.nan)

