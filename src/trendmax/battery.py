"""Statistic registry and battery: named decision statistics evaluated jointly.

:data:`STATISTICS` is the one description of every statistic: the trend
scores it combines, its combiner and its asymptotic null law. A name is a
registry entry or ``MAX[x1:...:xk]``: the maximum of the decision values
of Z_x1, ..., Z_xk over colon-separated scores in [0, 1], with no law (a
maximum over a chosen set of trend scores, Freidlin, Zheng, Li &
Gastwirth 2002, *Hum Hered* 53:146-152). MAXGRID is the registry's
``MAX[0:0.1:...:1]``. :func:`validate_battery` resolves names, and the
battery, the CLI and :func:`evaluate_single` all go through it, so each
statistic has exactly one numeric implementation. There are two entry
points. :func:`evaluate_battery` scores a batch, an (N, 6) array of cells
(r0, r1, r2, s0, s1, s2), at most ``CHUNK_SIZE`` rows per kernel pass.
:func:`evaluate_single` scores one table, any sequence of six cells, and
returns a float, NaN where the statistic is undefined, as in the battery;
the signed Z_x of one table is ``evaluate_single(table, f"MAX[{x}]", False)``.

A battery is an ordered list of statistic names, all evaluated on the
same tables so that comparisons between tests are matched. For each name
the battery produces the *decision value*: |Z| for two-sided normal-type
statistics (signed Z when one-sided, with absolute values taken inside
MAX statistics), and the raw value for the chi-square and composite
statistics, which reject for large values either way.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .classical import allele_chisq_values, chi2df_values, hwd_values
from .errors import InputError, UnknownStatistic
from .robust import FAMILY_PAIRS, batch_correlations
from .tables import cell_array
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

    ``scores`` are the x of the Z_x it combines; ``law(value, two_sided)``
    is its asymptotic null tail, or None (simulation or permutation only).
    Values are NaN where the statistic is undefined, in the battery and in
    :func:`evaluate_single` alike.
    """

    combine: Callable[[_Parts, tuple[float, ...]], np.ndarray]
    scores: tuple[float, ...] = ()
    law: Callable[[float, bool], float] | None = None


# MAXGRID's scores, the tenths from 0 to 1.
DEFAULT_GRID = tuple(i / 10 for i in range(11))

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
    "MAXGRID": Statistic(max_decided, DEFAULT_GRID),
    "CHI2_2DF": Statistic(lambda p, xs: p[chi2df_values], law=chi2_2_tail),
    "AA": Statistic(lambda p, xs: p[allele_chisq_values], law=chi2_1_tail),
    "HWD": Statistic(lambda p, xs: p[hwd_values], law=chi2_1_tail),
    "T_P": Statistic(lambda p, xs: p[allele_chisq_values] * p[hwd_values]),
    "T_MAX": Statistic(lambda p, xs: np.maximum(p[allele_chisq_values], p[hwd_values])),
}

ALL_STATISTICS = tuple(STATISTICS)

# MAXGRID stays opt-in, so the default battery is the paper's.
DEFAULT_BATTERY = ("Z0", "Z_HALF", "Z1", "MERT", "MERT_REC_ADD", "MAX2", "MAX2_REC_ADD", "MAX3",
                   "CHI2_2DF", "AA", "HWD", "T_P", "T_MAX")


def validate_battery(battery) -> dict[str, Statistic]:
    """The battery's names resolved to their statistics, in order: at least one, each once.

    A registry name resolves to its entry; ``MAX[x1:...:xk]`` to the maximum
    over those scores, each a number in [0, 1], with no law. A mapping
    resolves by its names, so one this returned passes through. A bare
    string is not a battery.
    """
    if isinstance(battery, str):
        raise InputError(f"battery must be a sequence of statistic names, such as ({battery!r},), "
                         f"not the string {battery!r}")
    if not isinstance(battery, Iterable):
        raise InputError(f"battery must be a sequence of statistic names, got {battery!r}")
    resolved = {}
    for name in battery:
        if not isinstance(name, str):
            raise InputError(f"a statistic name must be a string, got {name!r}")
        if name in resolved:
            raise InputError(f"duplicate statistic {name!r} in battery")
        resolved[name] = _resolve(name)
    if not resolved:
        raise InputError("battery must contain at least one statistic")
    return resolved


def _resolve(name: str) -> Statistic:
    if name in STATISTICS:
        return STATISTICS[name]
    if not (name.startswith("MAX[") and name.endswith("]")):
        raise UnknownStatistic(f"unknown statistic {name!r}; known: {', '.join(ALL_STATISTICS)}, MAX[x1:...:xk]")
    grid = name[4:-1].split(":") if name[4:-1] else []
    try:
        scores = tuple(float(x) for x in grid)
    except ValueError:
        raise InputError(f"{name}: score grid must be a sequence of numbers, got {grid!r}") from None
    if not scores:
        raise InputError(f"{name}: score grid must be nonempty")
    bad = [x for x in scores if not 0.0 <= x <= 1.0]  # NaN fails too
    if bad:
        raise InputError(f"{name}: grid scores must lie in [0, 1], got {bad[0]!r}")
    return Statistic(max_decided, scores)


# The package's one rows-per-call rule: evaluate_battery gives the kernels at
# most this many rows per pass, and a simulation chunk or a permutation task
# is at most this many rows, so one pass's kernel temporaries stay within a few MB.
CHUNK_SIZE = 10_000


def evaluate_battery(cells, battery, two_sided: bool = True) -> dict[str, np.ndarray]:
    """Decision values for every battery statistic on (N, 6) cells (:func:`~trendmax.tables.cell_array`).

    Columns are r0, r1, r2, s0, s1, s2, in any memory order (the samplers
    hand over column-major batches); one table goes through
    :func:`evaluate_single`. The kernels see at most ``CHUNK_SIZE`` rows per
    pass, and each pass computes the shared components once: each distinct
    trend score Z_x (from one set of trend sums), the correlation plug-ins
    and the composite parts. Undefined entries are NaN; with the +1/2
    continuity correction applied they never occur.
    """
    cells, battery = cell_array(cells), validate_battery(battery)
    xs = dict.fromkeys(x for spec in battery.values() for x in spec.scores)
    out = {name: np.empty(len(cells)) for name in battery}
    for lo in range(0, len(cells), CHUNK_SIZE):
        parts = _parts(cells[lo:lo + CHUNK_SIZE], xs, two_sided)
        for name, spec in battery.items():
            out[name][lo:lo + CHUNK_SIZE] = spec.combine(parts, spec.scores)
    return out


def _parts(cells, xs, two_sided: bool) -> _Parts:
    """The shared components of ``cells``, with Z_x for each score in ``xs``.

    One pass over the cells gives the sums behind every Z_x; they are
    released before the classical kernels allocate their temporaries.
    """
    sums = trend_sums(cells) if xs else None
    return _Parts(cells, {x: trend_values(sums, x) for x in xs}, two_sided)


def evaluate_single(table, name: str, two_sided: bool = True) -> float:
    """Decision value of statistic ``name`` on one table of six cells (NaN where undefined).

    The table goes through the kernels as one 1-D row, so they do scalar
    arithmetic; the value is bit-identical to the batch's.
    """
    spec = validate_battery((name,))[name]
    return float(spec.combine(_parts(cell_array([table])[0], spec.scores, two_sided), spec.scores))
