"""Correlation structure of the trend family and the MERT/MAX advisory.

Given the optimal trend tests Z_0, Z_1/2, Z_1 for the recessive, additive
and dominant models, this module provides

  * closed-form null correlations between pairs of trend statistics,
    evaluated at (estimated) genotype proportions,
  * the necessary-and-sufficient certificate rho_si + rho_it >= 1 + rho_st
    that the extreme-pair MERT (Z_s + Z_t) / sqrt(2 (1 + rho_st)) is the
    MERT of the whole family,
  * the advisory choice between MERT and MAX from the minimum correlation,
  * closed-form asymptotic null thresholds of maxima of trend statistics
    (:func:`max_threshold`).

The MERT and MAX statistics themselves are registry entries in
:mod:`trendmax.battery`. For jointly normal statistics the Pitman
efficiency of Z_j relative to Z_i equals rho_ij^2, which is what makes
the null correlation matrix the whole story.

Null geometry
-------------
The numerator x u1 + u2 of Z_x (see :mod:`trendmax.trend`) is linear in
(u1, u2), which under the null is asymptotically normal with the
covariance S of the NM and MM indicators at the pooled genotype
proportions. Whitened, every Z_x is <d_x, W> for one W ~ N(0, I2) and a
unit direction d_x; :func:`trend_angles` gives the angles of the d_x.
The ray from the origin at angle phi leaves {max_i <d_i, W> <= t}
(t > 0) through the constraint of the nearest direction, at radius
t / cos(phi - theta_i), and never if no direction lies within pi/2. So a
gap g between neighbouring directions adds Owen's T(t, tan min(g/2, pi/2))
to the exceedance probability once for each neighbour (Owen 1956, *Ann
Math Stat* 27:1075-1090; Freidlin, Zheng, Li & Gastwirth 2002, *Hum
Hered* 53:146-152). Maxima of |Z_x| add the negated directions.

Owen's T and ``ndtri`` come from ``scipy.special``, imported inside
:func:`max_exceedance` and :func:`max_threshold`, so importing this module
does not load scipy; only closed-form thresholds (``criticals
--normal-approx``) do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CorrelationOutOfRange,
    DegenerateProportions,
    InputError,
    NotExtremePair,
)
from .tables import GenotypeTable

DEFAULT_GRID = tuple(i / 10 for i in range(11))

# The score pairs of (Z_0, Z_1/2, Z_1) in the order of the correlation
# triple (rho_0_half, rho_0_1, rho_half_1).
FAMILY_PAIRS = ((0.0, 0.5), (0.0, 1.0), (0.5, 1.0))

# Advisory thresholds on the minimum null correlation of the family.
MERT_PREFERRED_ABOVE = 0.75
MAX_PREFERRED_BELOW = 0.50


@dataclass(frozen=True)
class CorrelationTriple:
    """Null correlations among (Z_0, Z_1/2, Z_1) at given genotype proportions."""

    rho_0_half: float
    rho_0_1: float
    rho_half_1: float

    def as_matrix(self) -> np.ndarray:
        """3x3 correlation matrix in family order (Z_0, Z_1/2, Z_1)."""
        return np.array(
            [
                [1.0, self.rho_0_half, self.rho_0_1],
                [self.rho_0_half, 1.0, self.rho_half_1],
                [self.rho_0_1, self.rho_half_1, 1.0],
            ]
        )


@dataclass(frozen=True)
class RobustStatistic:
    """A statistic's value on one table plus the named values it combines."""

    value: float
    components: dict


def correlation_values(props: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized closed-form correlations at proportions with shape (..., 3).

    Returns (rho_0_half, rho_0_1, rho_half_1). Entries whose denominators
    are not positive (a boundary proportion) come back as NaN. Values are
    clamped at 1: with no heterozygotes (p1 = 0) all three equal 1
    exactly, but rounding can give 1 + 4e-16.
    """
    props = np.asarray(props, dtype=float)
    p0, p1, p2 = props[..., 0], props[..., 1], props[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        mid_var = (p1 + 2 * p2) * p0 + (p1 + 2 * p0) * p2
        d0 = np.sqrt(p0 * (1 - p0))
        d2 = np.sqrt(p2 * (1 - p2))
        dm = np.sqrt(mid_var)
        rho_0_half = p0 * (p1 + 2 * p2) / (d0 * dm)
        rho_0_1 = p0 * p2 / (d0 * d2)
        rho_half_1 = p2 * (p1 + 2 * p0) / (d2 * dm)
        ok = (p0 > 0) & (p0 < 1) & (p2 > 0) & (p2 < 1) & (mid_var > 0)
        nan = np.full_like(rho_0_1, np.nan)
        return tuple(np.where(ok, np.minimum(rho, 1.0), nan)
                     for rho in (rho_0_half, rho_0_1, rho_half_1))


def estimate_correlations(props) -> CorrelationTriple:
    """Closed-form correlation triple at genotype proportions (p0, p1, p2).

    In practice the proportions are the pooled n_i / n of an observed
    table; passing population genotype frequencies gives the analytic
    null correlations.
    """
    props = np.asarray(props, dtype=float)
    if props.shape != (3,):
        raise InputError("expected three genotype proportions")
    if np.any(props < 0) or abs(props.sum() - 1.0) > 1e-9:
        raise DegenerateProportions(f"proportions {props!r} are not a distribution")
    r0h, r01, rh1 = correlation_values(props)
    if np.isnan(r01) or np.isnan(r0h) or np.isnan(rh1):
        raise DegenerateProportions(
            f"proportions {tuple(props)!r} give a zero-variance component"
        )
    return CorrelationTriple(float(r0h), float(r01), float(rh1))


def check_extreme_pair_condition(rho: np.ndarray, s: int, t: int, tol: float = 1e-12) -> bool:
    """True iff rho_si + rho_it >= 1 + rho_st for every family member i.

    (s, t) must achieve the minimum off-diagonal correlation; otherwise
    :class:`NotExtremePair` is raised. When the condition holds, the pair
    MERT is the MERT of the whole family.
    """
    rho = np.asarray(rho, dtype=float)
    k = rho.shape[0]
    if rho.shape != (k, k) or not np.allclose(rho, rho.T, atol=1e-9):
        raise InputError("correlation matrix must be square and symmetric")
    if not np.allclose(np.diag(rho), 1.0, atol=1e-9):
        raise InputError("correlation matrix must have a unit diagonal")
    if not (0 <= s < k and 0 <= t < k and s != t):
        raise InputError(f"invalid pair indices ({s}, {t}) for a {k}-member family")
    off = rho[~np.eye(k, dtype=bool)]
    if rho[s, t] > off.min() + tol:
        raise NotExtremePair(
            f"rho[{s},{t}]={rho[s, t]!r} is not the minimum off-diagonal correlation"
        )
    lhs = rho[s, :] + rho[:, t]
    return bool(np.all(lhs >= 1.0 + rho[s, t] - tol))


def mert_certificate(table: GenotypeTable, triple: CorrelationTriple | None = None) -> bool:
    """Certificate that the (Z_0, Z_1) pair MERT is the family MERT.

    Evaluates the extreme-pair condition on the estimated correlation
    matrix of (Z_0, Z_1/2, Z_1), or on ``triple`` if the caller has it.
    """
    triple = triple or estimate_correlations(table.pooled_proportions())
    return check_extreme_pair_condition(triple.as_matrix(), 0, 2)


def validate_grid(grid) -> tuple[float, ...]:
    """The grid as floats; it must be nonempty with every score in [0, 1] (NaN fails)."""
    grid = tuple(float(x) for x in grid)
    if not grid:
        raise InputError("score grid must be nonempty")
    bad = [x for x in grid if not 0.0 <= x <= 1.0]
    if bad:
        raise InputError(f"grid scores must lie in [0, 1], got {bad[0]!r}")
    return grid


def recommend_robust_test(rho_st: float) -> tuple[str, str]:
    """Advisory choice between MERT and MAX from the minimum correlation.

    Returns (choice, note). Above 0.75 the MERT gives up little power and
    is simpler; below 0.50 the maximum test is noticeably more powerful;
    in between either is defensible and MAX is suggested with a note.
    """
    if not -1.0 < rho_st <= 1.0:
        raise CorrelationOutOfRange(f"pair correlation {rho_st!r} not in (-1, 1]")
    if rho_st >= MERT_PREFERRED_ABOVE:
        return "MERT", "minimum correlation >= 0.75: MERT and MAX have similar power"
    if rho_st < MAX_PREFERRED_BELOW:
        return "MAX", "minimum correlation < 0.50: MAX is noticeably more powerful"
    return "MAX", (
        "minimum correlation in [0.50, 0.75): either test is defensible; "
        "MAX suggested"
    )


def batch_correlations(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Correlation triples from pooled proportions of a batch of tables."""
    cells = np.asarray(cells, dtype=float)
    nn = cells[..., 0:3] + cells[..., 3:6]
    with np.errstate(invalid="ignore"):  # an empty table gives NaN proportions
        props = nn / nn.sum(axis=-1, keepdims=True)
    return correlation_values(props)


def trend_angles(props, xs) -> np.ndarray:
    """Angles of the whitened directions d_x of Z_x, from d_0, at genotype proportions (p0, p1, p2).

    With c = (x, 1) and S the covariance of the NM and MM indicators,
    cos = c0' S c / sqrt(S22 c' S c) and sin = x sqrt(det S) / sqrt(S22 c' S c),
    where det S = p0 p1 p2; the angle grows with x, from 0 at x = 0.
    """
    p0, p1, p2 = (float(p) for p in props)
    if min(p0, p2) <= 0:
        raise DegenerateProportions(f"proportions {(p0, p1, p2)} give a zero-variance Z_0 or Z_1")
    xs = np.asarray(xs, dtype=float)
    return np.arctan2(xs * np.sqrt(p0 * p1 * p2), p2 * (1 - p2) - xs * p1 * p2)


def max_exceedance(angles, t: float, two_sided: bool) -> float:
    """P(max_i <d_i, W> > t) for t > 0, W ~ N(0, I2) and unit d_i at ``angles`` (of |.| if two-sided)."""
    from scipy.special import owens_t
    theta = np.asarray(angles, dtype=float)
    theta = np.sort(np.concatenate([theta, theta + np.pi]) if two_sided else theta)
    gaps = np.diff(theta, append=theta[0] + 2 * np.pi)
    return float(2 * owens_t(t, np.tan(np.minimum(gaps / 2, np.pi / 2))).sum())


def max_threshold(angles, alpha: float, two_sided: bool) -> float:
    """Upper-alpha point of the maximum in :func:`max_exceedance`, by bisection to 1e-12.

    It lies between the one-direction quantile and the Bonferroni bound.
    """
    from scipy.special import ndtri
    sides = 2 if two_sided else 1
    lo, hi = -ndtri(alpha / sides), -ndtri(alpha / (sides * len(angles)))
    if not lo > 0:
        raise InputError(f"alpha {alpha!r}: a one-sided maximum's closed form needs alpha < 0.5")
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if max_exceedance(angles, mid, two_sided) > alpha else (lo, mid)
    return float((lo + hi) / 2)
