"""Statistic registry and battery: named decision statistics evaluated jointly.

:data:`STATISTICS` is the one description of every statistic: the trend
scores it combines, its combiner, its asymptotic null law and the
exception that means "undefined". The battery, the CLI and the scalar API
(:func:`trend_statistic`, :func:`max3`, :func:`mert_statistic`,
:func:`chisq_2df`, ...) all read it, so each statistic has exactly one
numeric implementation. Every scalar function goes through one one-table
helper; it returns a float (the chi-squares and Z_x) or a
:class:`~trendmax.robust.RobustStatistic` whose components are the
registry values the statistic combines.

A battery is an ordered list of statistic identifiers, all evaluated on
the same tables so that comparisons between tests are matched;
:func:`validate_battery` resolves it once to ``{name: scores}``, so nothing
past it needs to know that MAXGRID's scores are a grid. For each
identifier the battery produces the *decision value*: |Z| for two-sided
normal-type statistics (signed Z when one-sided, with absolute values
taken inside MAX statistics), and the raw value for the chi-square and
composite statistics, which reject for large values either way.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .classical import allele_chisq_values, chi2df_values, hwd_values
from .errors import InputError, MonomorphicSample, TrendmaxError, UnknownStatistic, ZeroMargin, ZeroVariance
from .robust import DEFAULT_GRID, FAMILY_PAIRS, CorrelationTriple, RobustStatistic, batch_correlations, validate_grid
from .tables import GenotypeTable, cell_array
from .trend import trend_sums, trend_values


# The registry's asymptotic null tails, law(value, two_sided); a chi-square's is upper either way.
def normal_tail(value: float, two_sided: bool) -> float:
    """P(|N| > |value|) two-sided, P(N > value) one-sided, for N standard normal."""
    return math.erfc(abs(value) / math.sqrt(2)) if two_sided else math.erfc(value / math.sqrt(2)) / 2


def chi2_1_tail(value: float, two_sided: bool) -> float:
    return math.erfc(math.sqrt(value / 2))


def chi2_2_tail(value: float, two_sided: bool) -> float:
    return math.exp(-value / 2)


class _Parts(dict):
    """Shared components of one evaluation; ``parts[kernel]`` is kernel(cells), computed once."""

    def __init__(self, cells: np.ndarray, z: dict[float, np.ndarray], two_sided: bool):
        super().__init__()
        self.cells, self.z, self.two_sided = cells, z, two_sided

    def __missing__(self, kernel):
        self[kernel] = value = kernel(self.cells)
        return value

    def decide(self, values: np.ndarray) -> np.ndarray:
        return np.abs(values) if self.two_sided else values


def max_decided(parts: _Parts, xs: tuple[float, ...]) -> np.ndarray:
    """Maximum of the decision values of Z_x over the scores."""
    return reduce(np.maximum, (parts.decide(parts.z[x]) for x in xs))


def pair_mert(parts: _Parts, xs: tuple[float, ...]) -> np.ndarray:
    """Extreme-pair MERT (Z_s + Z_t) / sqrt(2 (1 + rho_st)) at the plug-in rho_st."""
    rho = parts[batch_correlations][FAMILY_PAIRS.index(xs)]
    return parts.decide((parts.z[xs[0]] + parts.z[xs[1]]) / np.sqrt(2.0 * (1.0 + rho)))


@dataclass(frozen=True)
class Statistic:
    """How one statistic is built: ``combine(parts, scores)`` gives its decision values.

    ``scores`` are the x of the Z_x it combines (None: a grid, see :func:`validate_battery`);
    ``law(value, two_sided)`` is its asymptotic null tail, or None
    (simulation or permutation only); the scalar API raises ``undefined``
    where the value is NaN and reports ``components`` beside the value.
    """

    combine: Callable[[_Parts, tuple[float, ...]], np.ndarray]
    scores: tuple[float, ...] | None = ()
    law: Callable[[float, bool], float] | None = None
    undefined: type[TrendmaxError] = ZeroVariance
    components: tuple[str, ...] = ()


# Combiners look kernels up as module globals when called, so wrappers set on the module see every call.
STATISTICS = {
    "Z0": Statistic(max_decided, (0.0,), normal_tail),
    "Z_HALF": Statistic(max_decided, (0.5,), normal_tail),
    "Z1": Statistic(max_decided, (1.0,), normal_tail),
    "MERT": Statistic(pair_mert, (0.0, 1.0), normal_tail),
    "MERT_REC_ADD": Statistic(pair_mert, (0.0, 0.5), normal_tail),
    "MAX2": Statistic(max_decided, (0.0, 1.0)),
    "MAX2_REC_ADD": Statistic(max_decided, (0.0, 0.5)),
    "MAX3": Statistic(max_decided, (0.0, 0.5, 1.0)),
    "MAXGRID": Statistic(max_decided, None),
    "CHI2_2DF": Statistic(lambda p, xs: p[chi2df_values], law=chi2_2_tail, undefined=ZeroMargin),
    "AA": Statistic(lambda p, xs: p[allele_chisq_values], law=chi2_1_tail, undefined=ZeroMargin),
    "HWD": Statistic(lambda p, xs: p[hwd_values], law=chi2_1_tail, undefined=MonomorphicSample),
    "T_P": Statistic(lambda p, xs: p[allele_chisq_values] * p[hwd_values],
                     undefined=MonomorphicSample, components=("AA", "HWD")),
    "T_MAX": Statistic(lambda p, xs: np.maximum(p[allele_chisq_values], p[hwd_values]),
                       undefined=MonomorphicSample, components=("AA", "HWD")),
}

ALL_STATISTICS = tuple(STATISTICS)

# MAXGRID needs an explicit grid, so it stays opt-in.
DEFAULT_BATTERY = tuple(name for name, spec in STATISTICS.items() if spec.scores is not None)


def validate_battery(battery, grid=DEFAULT_GRID) -> dict[str, tuple[float, ...]]:
    """The battery resolved to ``{name: scores}`` in order: known, distinct names, at least one.

    MAXGRID gets ``validate_grid(grid)``, every other statistic its registry
    scores. A mapping this returned passes through again with its MAXGRID
    scores, checked again; ``grid`` applies only to a sequence of names.
    """
    grid = battery.get("MAXGRID", grid) if isinstance(battery, dict) else grid
    battery = tuple(battery)
    if not battery:
        raise InputError("battery must contain at least one statistic")
    seen = set()
    for name in battery:
        if name not in STATISTICS:
            raise UnknownStatistic(
                f"unknown statistic {name!r}; known: {', '.join(ALL_STATISTICS)}"
            )
        if name in seen:
            raise InputError(f"duplicate statistic {name!r} in battery")
        seen.add(name)
    return {name: validate_grid(grid) if STATISTICS[name].scores is None else STATISTICS[name].scores
            for name in battery}


def evaluate_battery(cells: np.ndarray, battery, two_sided: bool = True) -> dict[str, np.ndarray]:
    """Decision values for every battery statistic on a batch of tables.

    ``cells`` has shape (B, 6) with columns r0, r1, r2, s0, s1, s2, in
    any memory order (the samplers hand over column-major batches), or is
    a single row of six.
    Shared components are computed once: each distinct trend score Z_x
    (from one set of trend sums), the correlation plug-ins and the
    composite parts. Undefined entries are NaN; with the +1/2 continuity
    correction applied they never occur.
    """
    battery = validate_battery(battery)
    cells = np.atleast_2d(np.asarray(cells, dtype=float))
    parts = _parts(cells, dict.fromkeys(x for xs in battery.values() for x in xs), two_sided)
    return {name: STATISTICS[name].combine(parts, xs) for name, xs in battery.items()}


def _parts(cells, xs, two_sided: bool) -> _Parts:
    """The shared components of ``cells``, with Z_x for each score in ``xs``.

    One pass over the cells gives the sums behind every Z_x; they are
    released before the classical kernels allocate their temporaries.
    """
    sums = trend_sums(cells) if xs else None
    return _Parts(cells, {x: trend_values(sums, x) for x in xs}, two_sided)


# Rows per evaluate_battery call where many small tables are pooled: the cost
# per row is lowest near 5,000 rows, and the kernel temporaries stay near 1 MB.
BATCH_ROWS = 5_000


def evaluate_tables(cells, battery, two_sided: bool = True) -> dict[str, np.ndarray]:
    """:func:`evaluate_battery` on (N, 6) cells (:func:`~trendmax.tables.cell_array`), BATCH_ROWS rows per call."""
    cells, battery = cell_array(cells), validate_battery(battery)
    out = {name: np.empty(len(cells)) for name in battery}
    for lo in range(0, len(cells), BATCH_ROWS):
        for name, values in evaluate_battery(cells[lo:lo + BATCH_ROWS], battery, two_sided).items():
            out[name][lo:lo + len(values)] = values
    return out


def evaluate_single(table_cells, name: str, two_sided: bool = True, grid=DEFAULT_GRID) -> float:
    """Decision value of one statistic on one table (NaN if undefined)."""
    values = evaluate_battery(np.asarray(table_cells, dtype=float), validate_battery((name,), grid), two_sided)
    return float(values[name][0])


# The scalar API: one table through the registry; NaN raises the registry's exception.

_Z_NAMES = {spec.scores[0]: name for name, spec in STATISTICS.items() if len(spec.scores or ()) == 1}


def _one_table(table: GenotypeTable, name: str, two_sided: bool = True, grid=DEFAULT_GRID) -> RobustStatistic:
    """Statistic ``name`` on one table, with the registry values it combines as components.

    The table goes through the kernels as one 1-D row, so they do scalar
    arithmetic; the values are bit-identical to the batch's.
    """
    spec, xs = STATISTICS[name], validate_battery((name,), grid)[name]
    parts = _parts(np.array(table.cells()), xs, two_sided)
    value = float(spec.combine(parts, xs))
    if np.isnan(value):
        raise spec.undefined(f"{name} is undefined on {table}")
    components = {_Z_NAMES.get(x, f"Z@{x:g}"): float(parts.z[x]) for x in xs}
    if spec.combine is pair_mert:
        i = FAMILY_PAIRS.index(xs)
        components[CorrelationTriple._fields[i]] = float(parts[batch_correlations][i])
    components.update((part, float(STATISTICS[part].combine(parts, ()))) for part in spec.components)
    return RobustStatistic(value, components)


def trend_statistic(table: GenotypeTable, x: float) -> float:
    """Signed trend statistic Z_x for one table, scores (0, x, 1) with x in [0, 1]."""
    return _one_table(table, "MAXGRID", False, (x,)).value


def mert_statistic(table: GenotypeTable) -> RobustStatistic:
    """Signed MERT of the extreme pair (Z_0, Z_1), at the plug-in correlation from n_i / n."""
    return _one_table(table, "MERT", False)


def mert_rec_add(table: GenotypeTable) -> RobustStatistic:
    """Signed extreme-pair MERT for the restricted recessive-additive family."""
    return _one_table(table, "MERT_REC_ADD", False)


def max2(table: GenotypeTable, two_sided: bool = True,
         pair: tuple[float, float] = (0.0, 1.0)) -> RobustStatistic:
    """Maximum over a pair of trend statistics: (Z_0, Z_1), or (0, 0.5) for rec-add."""
    return _one_table(table, "MAXGRID", two_sided, pair)


def max3(table: GenotypeTable, two_sided: bool = True) -> RobustStatistic:
    """Maximum over (Z_0, Z_1/2, Z_1)."""
    return _one_table(table, "MAX3", two_sided)


def max_grid(table: GenotypeTable, grid=DEFAULT_GRID, two_sided: bool = True) -> RobustStatistic:
    """Maximum of (|)Z_x(|) over a score grid, approximating the continuum maximum."""
    return _one_table(table, "MAXGRID", two_sided, grid)


def chisq_2df(table: GenotypeTable) -> float:
    """Pearson chi-square over the six genotype cells (2 df)."""
    return _one_table(table, "CHI2_2DF").value


def chisq_allele(table: GenotypeTable) -> float:
    """Allele-association chi-square on the collapsed allele table (1 df)."""
    return _one_table(table, "AA").value


def product_test(table: GenotypeTable) -> RobustStatistic:
    """Product T_P of the allele-association and HWD chi-squares, with both as components."""
    return _one_table(table, "T_P")


def tmax(table: GenotypeTable) -> RobustStatistic:
    """Maximum T_MAX of the allele-association and HWD chi-squares, with both as components."""
    return _one_table(table, "T_MAX")
