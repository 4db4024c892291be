"""Correlation structure of the trend family and the MERT/MAX advisory.

Given the optimal trend tests Z_0, Z_1/2, Z_1 for the recessive, additive
and dominant models, this module provides

  * closed-form null correlations between pairs of trend statistics,
    evaluated at (estimated) genotype proportions,
  * the necessary-and-sufficient certificate rho_si + rho_it >= 1 + rho_st
    that the extreme-pair MERT (Z_s + Z_t) / sqrt(2 (1 + rho_st)) is the
    MERT of the whole family,
  * helpers for maximin selection inside a family and for choosing
    between MERT and MAX from the minimum correlation.

The MERT and MAX statistics themselves are registry entries in
:mod:`trendmax.battery`. For jointly normal statistics the Pitman
efficiency of Z_j relative to Z_i equals rho_ij^2, which is what makes
the null correlation matrix the whole story.
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

# Scores of (Z_0, Z_1/2, Z_1), and the score pairs in the order of the
# correlation triple (rho_0_half, rho_0_1, rho_half_1).
FAMILY = (0.0, 0.5, 1.0)
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
    """A robust combination value plus the component statistics behind it."""

    value: float
    components: dict
    kind: str
    two_sided: bool = True


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


def mert_are(rho_st: float) -> float:
    """Minimum asymptotic relative efficiency of the pair MERT: (1 + rho_st) / 2."""
    if not -1.0 < rho_st <= 1.0:
        raise CorrelationOutOfRange(f"pair correlation {rho_st!r} not in (-1, 1]")
    return (1.0 + rho_st) / 2.0


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


def maximin_member(rho: np.ndarray) -> tuple[int, float]:
    """Family member maximizing its minimum squared correlation (= minimum ARE).

    Ties break toward the lowest index. Returns (index, min ARE).
    """
    rho = np.asarray(rho, dtype=float)
    k = rho.shape[0]
    if rho.shape != (k, k) or k < 1:
        raise InputError("correlation matrix must be square")
    ares = rho**2
    min_are = ares.min(axis=0)
    j = int(np.argmax(min_are))
    return j, float(min_are[j])


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
