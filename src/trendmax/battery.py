"""Statistic battery: named decision statistics evaluated jointly.

A battery is an ordered list of statistic identifiers, all evaluated on
the same tables so that comparisons between tests are matched. For each
identifier the battery produces the *decision value*: |Z| for two-sided
normal-type statistics (signed Z when one-sided, with absolute values
taken inside MAX statistics), and the raw value for the chi-square and
composite statistics, which reject for large values either way.
"""

from __future__ import annotations

import numpy as np

from .classical import allele_chisq_values, chi2df_values, hwd_values
from .errors import InputError, UnknownStatistic
from .robust import DEFAULT_GRID, batch_correlations
from .trend import trend_sums, trend_values

# Trend-family statistics and the scores x of the Z_x they combine
# (MAXGRID takes the grid). A MERT scales the sum of its pair by the
# plug-in correlation at MERT_RHO's index in the batch_correlations
# triple; the others take the maximum of their decision values.
TREND_SCORES = {
    "Z0": (0.0,),
    "Z_HALF": (0.5,),
    "Z1": (1.0,),
    "MERT": (0.0, 1.0),
    "MERT_REC_ADD": (0.0, 0.5),
    "MAX2": (0.0, 1.0),
    "MAX2_REC_ADD": (0.0, 0.5),
    "MAX3": (0.0, 0.5, 1.0),
}
MERT_RHO = {"MERT": 1, "MERT_REC_ADD": 0}

# The trend family is normal-type (signed values); the rest are chi-square-like.
NORMAL_TYPE = frozenset({*TREND_SCORES, "MAXGRID"})

ALL_STATISTICS = (
    "Z0",
    "Z_HALF",
    "Z1",
    "MERT",
    "MERT_REC_ADD",
    "MAX2",
    "MAX2_REC_ADD",
    "MAX3",
    "MAXGRID",
    "CHI2_2DF",
    "AA",
    "HWD",
    "T_P",
    "T_MAX",
)

# MAXGRID needs an explicit grid, so it stays opt-in.
DEFAULT_BATTERY = tuple(name for name in ALL_STATISTICS if name != "MAXGRID")


def validate_battery(battery) -> tuple[str, ...]:
    battery = tuple(battery)
    if not battery:
        raise InputError("battery must contain at least one statistic")
    seen = set()
    for name in battery:
        if name not in ALL_STATISTICS:
            raise UnknownStatistic(
                f"unknown statistic {name!r}; known: {', '.join(ALL_STATISTICS)}"
            )
        if name in seen:
            raise InputError(f"duplicate statistic {name!r} in battery")
        seen.add(name)
    return battery


def evaluate_battery(
    cells: np.ndarray,
    battery,
    two_sided: bool = True,
    grid=DEFAULT_GRID,
) -> dict[str, np.ndarray]:
    """Decision values for every battery statistic on a batch of tables.

    ``cells`` has shape (B, 6) with columns r0, r1, r2, s0, s1, s2.
    Shared components are computed once: each distinct trend score Z_x
    (from one set of trend sums), the correlation plug-ins and the
    composite parts. Undefined entries are NaN; with the +1/2 continuity
    correction applied they never occur.
    """
    battery = validate_battery(battery)
    if "MAXGRID" in battery and len(grid) == 0:
        raise InputError("score grid must be nonempty")
    cells = np.atleast_2d(np.asarray(cells, dtype=float))

    def scores(name: str) -> tuple[float, ...]:
        if name == "MAXGRID":
            return tuple(float(x) for x in grid)
        return TREND_SCORES.get(name, ())

    # One pass over the cells gives the sums behind every Z_x; they are
    # released before the classical kernels allocate their temporaries.
    needed = dict.fromkeys(x for name in battery for x in scores(name))
    z: dict[float, np.ndarray] = {}
    if needed:
        sums = trend_sums(cells)
        z = {x: trend_values(sums, x) for x in needed}
        del sums

    rho: list[np.ndarray] | None = None

    def correlations():
        nonlocal rho
        if rho is None:
            rho = list(batch_correlations(cells))
        return rho

    def decide(values: np.ndarray) -> np.ndarray:
        return np.abs(values) if two_sided else values

    aa_vals = hwd_vals = None

    def aa() -> np.ndarray:
        nonlocal aa_vals
        if aa_vals is None:
            aa_vals = allele_chisq_values(cells)
        return aa_vals

    def hwd() -> np.ndarray:
        nonlocal hwd_vals
        if hwd_vals is None:
            hwd_vals = hwd_values(cells[..., 0:3])
        return hwd_vals

    out: dict[str, np.ndarray] = {}
    for name in battery:
        xs = scores(name)
        if name in MERT_RHO:
            r = correlations()[MERT_RHO[name]]
            out[name] = decide((z[xs[0]] + z[xs[1]]) / np.sqrt(2.0 * (1.0 + r)))
        elif xs:
            vals = decide(z[xs[0]])
            for x in xs[1:]:
                vals = np.maximum(vals, decide(z[x]))
            out[name] = vals
        elif name == "CHI2_2DF":
            out[name] = chi2df_values(cells)
        elif name == "AA":
            out[name] = aa()
        elif name == "HWD":
            out[name] = hwd()
        elif name == "T_P":
            out[name] = aa() * hwd()
        elif name == "T_MAX":
            out[name] = np.maximum(aa(), hwd())
    return out


def evaluate_single(table_cells, name: str, two_sided: bool = True, grid=DEFAULT_GRID) -> float:
    """Decision value of one statistic on one table (NaN if undefined)."""
    values = evaluate_battery(np.asarray(table_cells, dtype=float), (name,), two_sided, grid)
    return float(values[name][0])
