"""Correlation structure of the trend family and the MERT/MAX advisory.

Given the optimal trend tests Z_0, Z_1/2, Z_1 for the recessive, additive
and dominant models, this module provides

  * closed-form null correlations between pairs of trend statistics,
    evaluated at (estimated) genotype proportions, as one
    :class:`CorrelationTriple`,
  * the certificate rho_0,1/2 + rho_1/2,1 >= 1 + rho_0,1 that the
    extreme-pair MERT (Z_0 + Z_1) / sqrt(2 (1 + rho_0,1)) is the MERT of
    the whole family (Gastwirth 1966, *JASA* 61:929-948),
  * the advisory choice between MERT and MAX from the minimum correlation,
  * the closed-form null tail of a maximum of trend statistics
    (:func:`max_tail`) and the upper point of a tail (:func:`upper_point`).

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

The same geometry makes the certificate hold wherever the triple exists.
Each rho is the cosine of the angle between two directions, and the
angles grow with x from theta_0 = 0 to theta_1 = atan2(sqrt(p0 p1 p2),
p0 p2) < pi/2. So with a the angle of Z_1/2 and b = theta_1 - a, rho_0,1 =
cos(a + b) is the smallest rho, and cos a + cos b - 1 - cos(a + b) =
sin a sin b - (1 - cos a)(1 - cos b) >= 0, as tan(a/2) tan(b/2) <= 1.

With x = tan psi in Owen's integral, 2 T(t, tan h) = (1/pi) int_0^h
exp(-t^2 / (2 cos^2 psi)) dpsi, which a 64-point Gauss-Legendre rule takes
to about 1e-10 relative for t in [0.3, 8], with numpy alone.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import CorrelationOutOfRange, DegenerateProportions, InputError

# The score pairs of (Z_0, Z_1/2, Z_1) in the order of the fields of
# CorrelationTriple, as those fields are labelled.
FAMILY_PAIRS = ((0.0, 0.5), (0.0, 1.0), (0.5, 1.0))

# Advisory thresholds on the minimum null correlation of the family.
MERT_PREFERRED_ABOVE = 0.75
MAX_PREFERRED_BELOW = 0.50


class CorrelationTriple(NamedTuple):
    """Null correlations among (Z_0, Z_1/2, Z_1): three floats, or three arrays over tables.

    The labels assume Z_0 scores NN, but the kernels' Z_0 scores MM, so
    ``rho_0_half`` holds rho(Z_1/2, Z_1) and ``rho_half_1`` rho(Z_0, Z_1/2);
    the strict-xfail ``test_correlation_values_give_the_simulated_null_correlations``
    states the right property. ``rho_0_1`` and the certificate are symmetric in the swap.
    """

    rho_0_half: float | np.ndarray
    rho_0_1: float | np.ndarray
    rho_half_1: float | np.ndarray


def correlation_values(props: np.ndarray) -> CorrelationTriple:
    """Vectorized closed-form correlations at proportions with shape (..., 3).

    Each field of the triple has shape (...). Entries whose denominators
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
        return CorrelationTriple(*(np.where(ok, np.minimum(rho, 1.0), nan)
                                   for rho in (rho_0_half, rho_0_1, rho_half_1)))


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
    triple = CorrelationTriple(*map(float, correlation_values(props)))
    if any(math.isnan(rho) for rho in triple):
        raise DegenerateProportions(
            f"proportions {tuple(props)!r} give a zero-variance component"
        )
    return triple


def mert_certificate(triple: CorrelationTriple) -> bool:
    """True iff rho_0,1/2 + rho_1/2,1 >= 1 + rho_0,1 (to 1e-12): the (Z_0, Z_1) pair MERT is the family MERT.

    It holds wherever the triple exists (see the module docstring).
    """
    return triple.rho_0_half + triple.rho_half_1 >= 1.0 + triple.rho_0_1 - 1e-12


def recommend_robust_test(rho_st: float) -> tuple[str, str]:
    """Advisory choice between MERT and MAX from the minimum correlation.

    Returns (choice, note). From ``MERT_PREFERRED_ABOVE`` up the MERT gives
    up little power and is simpler; below ``MAX_PREFERRED_BELOW`` MAX is
    noticeably more powerful; in between either is defensible, and MAX is suggested.
    """
    if not -1.0 < rho_st <= 1.0:
        raise CorrelationOutOfRange(f"pair correlation {rho_st!r} not in (-1, 1]")
    hi, lo = MERT_PREFERRED_ABOVE, MAX_PREFERRED_BELOW
    if rho_st >= hi:
        return "MERT", f"minimum correlation >= {hi:.2f}: MERT and MAX have similar power"
    if rho_st < lo:
        return "MAX", f"minimum correlation < {lo:.2f}: MAX is noticeably more powerful"
    return "MAX", f"minimum correlation in [{lo:.2f}, {hi:.2f}): either test is defensible; MAX suggested"


def pooled_proportions(cells) -> np.ndarray:
    """Pooled genotype proportions n_i / n of (..., 6) table cells, shape (..., 3); NaN for an empty table."""
    cells = np.asarray(cells, dtype=float)
    nn = cells[..., 0:3] + cells[..., 3:6]
    with np.errstate(invalid="ignore"):
        return nn / nn.sum(axis=-1, keepdims=True)


def batch_correlations(cells: np.ndarray) -> CorrelationTriple:
    """Correlation triples at the pooled proportions of a batch of tables."""
    return correlation_values(pooled_proportions(cells))


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


def max_tail(angles, two_sided: bool):
    """t -> P(max_i <d_i, W> > t) for t >= 0, W ~ N(0, I2) and unit d_i at ``angles`` (of |.| if two-sided).

    The half-gaps and the rule's 2 cos^2 table are built once, so each t
    costs one exp table and one product (an :func:`upper_point` bisection
    takes about 45).
    """
    theta = np.asarray(angles, dtype=float)
    theta = np.sort(np.concatenate([theta, theta + np.pi]) if two_sided else theta)
    h = np.minimum(np.diff(theta, append=theta[0] + 2 * np.pi) / 2, np.pi / 2)
    nodes, weights = _unit_legendre()
    twice_cos2 = 2 * np.cos(np.multiply.outer(h, nodes)) ** 2
    return lambda t: float((h * (np.exp(-t * t / twice_cos2) @ weights)).sum() / np.pi)


@functools.cache
def _unit_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 64-point Gauss-Legendre rule on [0, 1], built once per process."""
    from numpy.polynomial.legendre import leggauss  # about 4 ms to import; only the closed forms need it
    nodes, weights = leggauss(64)
    return (nodes + 1) / 2, weights / 2


def upper_point(sf, alpha: float) -> float:
    """The t >= 0 where the decreasing tail ``sf`` falls to ``alpha``: double [0, 1], then bisect to 1e-12."""
    if not sf(0.0) > alpha:
        raise InputError(f"alpha {alpha!r} must lie below the null tail at 0, {sf(0.0):.6g}")
    lo, hi = 0.0, 1.0
    while sf(hi) > alpha:
        lo, hi = hi, 2 * hi
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if sf(mid) > alpha else (lo, mid)
    return (lo + hi) / 2
