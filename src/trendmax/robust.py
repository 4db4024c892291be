"""Efficiency-robust combinations of trend statistics.

Given the optimal trend tests Z_0, Z_1/2, Z_1 for the recessive, additive
and dominant models, this module provides

  * closed-form null correlations between pairs of trend statistics,
    evaluated at (estimated) genotype proportions,
  * the maximin efficiency robust test (MERT) for an extreme pair,
    (Z_s + Z_t) / sqrt(2 (1 + rho_st)), plus the necessary-and-sufficient
    certificate rho_si + rho_it >= 1 + rho_st that the pair MERT is the
    MERT of the whole family,
  * maximum statistics MAX2 / MAX3 and a grid approximation to the
    maximum over the continuous score family,
  * helpers for maximin selection inside a family and for choosing
    between MERT and MAX from the minimum correlation.

For jointly normal statistics the Pitman efficiency of Z_j relative to
Z_i equals rho_ij^2, which is what makes the null correlation matrix the
whole story.
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
    are not positive (a boundary proportion) come back as NaN.
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
        return (
            np.where(ok, rho_0_half, nan),
            np.where(ok, rho_0_1, nan),
            np.where(ok, rho_half_1, nan),
        )


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


def mert_pair(zs: float, zt: float, rho_st: float) -> float:
    """Extreme-pair MERT value (zs + zt) / sqrt(2 (1 + rho_st))."""
    if not -1.0 < rho_st <= 1.0:
        raise CorrelationOutOfRange(f"pair correlation {rho_st!r} not in (-1, 1]")
    return (zs + zt) / np.sqrt(2.0 * (1.0 + rho_st))


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


def _component_z(table: GenotypeTable, x: float) -> float:
    from .trend import trend_statistic

    return trend_statistic(table, x).value


def mert_statistic(table: GenotypeTable) -> RobustStatistic:
    """MERT for the full recessive-to-dominant family: extreme pair (Z_0, Z_1).

    The pair correlation is estimated by plugging the pooled proportions
    n_i / n into the closed form.
    """
    z0 = _component_z(table, 0.0)
    z1 = _component_z(table, 1.0)
    triple = estimate_correlations(table.pooled_proportions())
    value = mert_pair(z0, z1, triple.rho_0_1)
    return RobustStatistic(
        value=float(value),
        components={"Z0": z0, "Z1": z1, "rho_0_1": triple.rho_0_1},
        kind="MERT",
    )


def mert_rec_add(table: GenotypeTable) -> RobustStatistic:
    """Extreme-pair MERT for the restricted recessive-additive family."""
    z0 = _component_z(table, 0.0)
    zh = _component_z(table, 0.5)
    triple = estimate_correlations(table.pooled_proportions())
    value = mert_pair(z0, zh, triple.rho_0_half)
    return RobustStatistic(
        value=float(value),
        components={"Z0": z0, "Z_HALF": zh, "rho_0_half": triple.rho_0_half},
        kind="MERT_REC_ADD",
    )


def mert_certificate(table: GenotypeTable) -> bool:
    """Certificate that the (Z_0, Z_1) pair MERT is the family MERT.

    Evaluates the extreme-pair condition on the estimated correlation
    matrix of (Z_0, Z_1/2, Z_1).
    """
    triple = estimate_correlations(table.pooled_proportions())
    return check_extreme_pair_condition(triple.as_matrix(), 0, 2)


def _max_of(table: GenotypeTable, xs, two_sided: bool, kind: str) -> RobustStatistic:
    zs = {x: _component_z(table, x) for x in xs}
    decided = {x: abs(z) if two_sided else z for x, z in zs.items()}
    value = max(decided.values())
    names = {0.0: "Z0", 0.5: "Z_HALF", 1.0: "Z1"}
    components = {names.get(x, f"Z@{x:g}"): z for x, z in zs.items()}
    return RobustStatistic(value=float(value), components=components, kind=kind, two_sided=two_sided)


def max2(table: GenotypeTable, two_sided: bool = True, pair: tuple[float, float] = (0.0, 1.0)) -> RobustStatistic:
    """Maximum of the two extreme trend statistics.

    The default pair (0, 1) covers the full recessive-to-dominant family;
    pass (0, 0.5) for the recessive-additive subfamily.
    """
    return _max_of(table, pair, two_sided, "MAX2")


def max3(table: GenotypeTable, two_sided: bool = True, middle: str = "additive") -> RobustStatistic:
    """Maximum over (Z_0, Z_u, Z_1).

    ``middle`` selects Z_u: "additive" uses Z_1/2 (the usual genetics
    choice); "mert" uses the extreme-pair MERT instead.
    """
    if middle == "additive":
        return _max_of(table, (0.0, 0.5, 1.0), two_sided, "MAX3")
    if middle == "mert":
        z0 = _component_z(table, 0.0)
        z1 = _component_z(table, 1.0)
        zu = mert_statistic(table).value
        vals = [abs(v) if two_sided else v for v in (z0, zu, z1)]
        return RobustStatistic(
            value=float(max(vals)),
            components={"Z0": z0, "MERT": zu, "Z1": z1},
            kind="MAX3",
            two_sided=two_sided,
        )
    raise InputError(f"unknown middle statistic {middle!r} (use 'additive' or 'mert')")


def validate_grid(grid) -> tuple[float, ...]:
    """The grid as floats; it must be nonempty with every score in [0, 1] (NaN fails)."""
    grid = tuple(float(x) for x in grid)
    if not grid:
        raise InputError("score grid must be nonempty")
    bad = [x for x in grid if not 0.0 <= x <= 1.0]
    if bad:
        raise InputError(f"grid scores must lie in [0, 1], got {bad[0]!r}")
    return grid


def max_grid(table: GenotypeTable, grid=DEFAULT_GRID, two_sided: bool = True) -> RobustStatistic:
    """Maximum of (|)Z_x(|) over a score grid, approximating the continuum maximum."""
    return _max_of(table, validate_grid(grid), two_sided, "MAXGRID")


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
