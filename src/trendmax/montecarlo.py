"""Monte Carlo engine: samplers, critical values, power, and p-values.

Protocol
--------
Critical values come from the empirical distribution of each statistic's
decision value under the matching null scenario (defaults: 200,000
replicates, alpha = 0.05). Power is the fraction of alternative
replicates whose decision value strictly exceeds that threshold
(defaults: 10,000 replicates). Case and control rows are independent
multinomials; mixtures draw each stratum separately and add the tables.
Every simulated table gets +1/2 added to each cell unless the scenario
turns the correction off.

Determinism
-----------
Replicates are generated in fixed-size chunks whose random streams are
spawned from (seed, chunk index) and drawn one chunk after another.
Results are therefore bit-identical for a given (scenario, battery, B,
seed).

Layout
------
A batch of B tables is stored column-major: the (B, 6) cell array is the
transpose of a C-ordered (6, B) buffer, so each cell column r0 .. s2 is
one contiguous B-vector and the batched kernels, which slice columns,
read contiguous memory.

Quantile convention
-------------------
With the sorted null sample v(1..B), the alpha-level threshold is
v(ceil((1-alpha) B)) and rejection means decision value > threshold
(strictly), which keeps the size at or below alpha for atomless
statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .battery import DEFAULT_GRID, evaluate_battery, validate_battery
from .errors import (
    DegenerateTable,
    InputError,
    MismatchedScenario,
    NotPSD,
    ScenarioError,
)
from .population import CaseControlProbs, MixturePopulation, PenetranceModel
from .robust import batch_correlations
from .scenarios import Scenario
from .tables import GenotypeTable

CHUNK_SIZE = 10_000


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalValueSet:
    """Empirical upper-alpha thresholds per statistic under one null scenario."""

    thresholds: dict[str, float]
    alpha: float
    b: int
    seed: int
    scenario_key: tuple
    battery: tuple[str, ...]
    error_rates: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PowerRow:
    """Rejection rates (and their Monte Carlo SEs) for one scenario."""

    rates: dict[str, float]
    standard_errors: dict[str, float]
    b: int
    seed: int
    scenario_label: str
    alpha: float
    error_rates: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class MeanCorrelations:
    """Replicate averages of the plug-in correlation triple."""

    rho_0_half: float
    rho_0_1: float
    rho_half_1: float
    b: int
    seed: int
    failure_rate: float = 0.0

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.rho_0_half, self.rho_0_1, self.rho_half_1)


@dataclass(frozen=True)
class PValueCrossTab:
    """Cross-classified empirical p-values of two statistics on shared data.

    ``counts[i, j]`` is the number of replicates whose p-value for
    ``stat_a`` falls in bin i and for ``stat_b`` in bin j. Bins are
    closed on the left: [0, e1), [e1, e2), ..., [ek, 1].
    """

    counts: np.ndarray
    bin_edges: tuple[float, ...]
    stat_a: str
    stat_b: str
    b_null: int
    b_reps: int
    seed: int

    def bin_labels(self) -> list[str]:
        edges = (0.0, *self.bin_edges, 1.0)
        labels = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            labels.append(f"[{lo:g},{hi:g})" if hi != 1.0 else f"[{lo:g},1]")
        return labels


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_table(
    probs: CaseControlProbs,
    n_cases: int,
    n_controls: int,
    rng: np.random.Generator,
    correction: bool = False,
) -> GenotypeTable:
    """One table: case row ~ mul(r; p), control row ~ mul(s; q), independent."""
    if n_cases <= 0 or n_controls <= 0:
        raise InputError("sample sizes must be positive")
    r_row = rng.multinomial(n_cases, probs.case_probs)
    s_row = rng.multinomial(n_controls, probs.control_probs)
    cells = [float(c) for c in (*r_row, *s_row)]
    if correction:
        cells = [c + 0.5 for c in cells]
    return GenotypeTable(*cells)


def sample_mixture(
    population: MixturePopulation,
    penetrances: PenetranceModel | None,
    rng: np.random.Generator,
    correction: bool = False,
) -> GenotypeTable:
    """One stratified table: independent stratum tables added cellwise."""
    scenario = Scenario(
        population=population,
        penetrances=penetrances,
        n_cases=population.n_cases,
        n_controls=population.n_controls,
        correction=correction,
    )
    out = np.zeros((6, 1))
    _sample_chunk(scenario, rng, out)
    return GenotypeTable(*(out[:, 0] + (0.5 if correction else 0.0)))


def _sample_chunk(scenario: Scenario, rng: np.random.Generator, out: np.ndarray) -> None:
    """Add one chunk's draws into ``out`` of shape (6, count); fixed draw order per stratum."""
    count = out.shape[1]
    for case_probs, ctrl_probs, n_cases, n_controls in scenario.strata():
        out[0:3] += rng.multinomial(n_cases, case_probs, size=count).T
        out[3:6] += rng.multinomial(n_controls, ctrl_probs, size=count).T


def simulate_cells(scenario: Scenario, b: int, seed: int) -> np.ndarray:
    """(b, 6) table cells for a scenario, column-major (see Layout)."""
    if b <= 0:
        raise InputError("replicate count must be positive")
    n_chunks = -(-b // CHUNK_SIZE)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    out = np.zeros((6, b))
    for i, chunk_seed in enumerate(seeds):
        lo = i * CHUNK_SIZE
        _sample_chunk(scenario, np.random.default_rng(chunk_seed), out[:, lo:lo + CHUNK_SIZE])
    if scenario.correction:
        out += 0.5
    return out.T


# ---------------------------------------------------------------------------
# empirical quantiles, critical values, power
# ---------------------------------------------------------------------------

def empirical_upper_quantile(values: np.ndarray, alpha: float) -> float:
    """v(ceil((1-alpha) B)) of the sorted sample, ignoring NaNs; found by selection."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha {alpha!r} must lie strictly in (0, 1)")
    values = np.asarray(values, dtype=float)
    values = values[~np.isnan(values)]
    if values.size == 0:
        raise InputError("no finite values to take a quantile of")
    k = math.ceil((1.0 - alpha) * values.size)
    k = min(max(k, 1), values.size)
    return float(np.partition(values, k - 1)[k - 1])


def estimate_critical_values(
    scenario: Scenario,
    battery,
    b: int = 200_000,
    alpha: float = 0.05,
    *,
    seed: int,
    grid=DEFAULT_GRID,
) -> CriticalValueSet:
    """Empirical upper-alpha thresholds of each decision value under the null."""
    if not scenario.is_null:
        raise ScenarioError("critical values must be estimated under a null scenario")
    if b < 1000:
        raise InputError("need at least 1000 null replicates")
    battery = validate_battery(battery)
    cells = simulate_cells(scenario, b, seed)
    values = evaluate_battery(cells, battery, scenario.two_sided, grid)
    thresholds = {}
    error_rates = {}
    for name, v in values.items():
        thresholds[name] = empirical_upper_quantile(v, alpha)
        bad = float(np.isnan(v).mean())
        if bad:
            error_rates[name] = bad
    return CriticalValueSet(
        thresholds=thresholds,
        alpha=alpha,
        b=b,
        seed=seed,
        scenario_key=scenario.key(),
        battery=battery,
        error_rates=error_rates,
    )


def estimate_power(
    scenario: Scenario,
    battery,
    criticals: CriticalValueSet,
    b: int = 10_000,
    *,
    seed: int,
    grid=DEFAULT_GRID,
) -> PowerRow:
    """Rejection rate of each statistic against matched null thresholds.

    The thresholds must come from the matching null scenario (same
    population, sample sizes, correction and sidedness); otherwise
    :class:`MismatchedScenario` is raised. Replicates where a statistic
    is undefined never reject and are reported in ``error_rates``.
    """
    battery = validate_battery(battery)
    if scenario.key() != criticals.scenario_key:
        raise MismatchedScenario(
            "critical values were estimated under a different null scenario "
            f"({criticals.scenario_key} vs {scenario.key()})"
        )
    missing = [name for name in battery if name not in criticals.thresholds]
    if missing:
        raise MismatchedScenario(f"no thresholds for {missing}")
    cells = simulate_cells(scenario, b, seed)
    values = evaluate_battery(cells, battery, scenario.two_sided, grid)
    rates = {}
    ses = {}
    error_rates = {}
    for name in battery:
        v = values[name]
        rate = float(np.sum(v > criticals.thresholds[name]) / b)
        rates[name] = rate
        ses[name] = math.sqrt(rate * (1.0 - rate) / b)
        bad = float(np.isnan(v).mean())
        if bad:
            error_rates[name] = bad
    return PowerRow(
        rates=rates,
        standard_errors=ses,
        b=b,
        seed=seed,
        scenario_label=scenario.label,
        alpha=criticals.alpha,
        error_rates=error_rates,
    )


def mean_correlation_matrix(
    scenario: Scenario,
    b: int = 10_000,
    *,
    seed: int,
) -> MeanCorrelations:
    """Replicate average of the plug-in correlation triple at n_i / n."""
    cells = simulate_cells(scenario, b, seed)
    r0h, r01, rh1 = batch_correlations(cells)
    bad = np.isnan(r01) | np.isnan(r0h) | np.isnan(rh1)
    ok = ~bad
    if not ok.any():
        raise DegenerateTable("correlation estimation failed on every replicate")
    return MeanCorrelations(
        rho_0_half=float(r0h[ok].mean()),
        rho_0_1=float(r01[ok].mean()),
        rho_half_1=float(rh1[ok].mean()),
        b=b,
        seed=seed,
        failure_rate=float(bad.mean()),
    )


# ---------------------------------------------------------------------------
# matched p-value cross-tabulation
# ---------------------------------------------------------------------------

def _empirical_pvalues(null_sorted: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """(1 + #null >= obs) / (B + 1), vectorized over observations.

    An undefined (NaN) observation gets p = 1, so it is never counted as
    significant, as in power and permutation.
    """
    b = null_sorted.size
    n_ge = b - np.searchsorted(null_sorted, observed, side="left")
    return np.where(np.isnan(observed), 1.0, (1.0 + n_ge) / (b + 1.0))


def pvalue_crosstab(
    scenario: Scenario,
    stat_a: str,
    stat_b: str,
    b_null: int = 200_000,
    b_reps: int = 5_000,
    bins: tuple[float, ...] = (0.01, 0.05, 0.10),
    *,
    seed: int,
    grid=DEFAULT_GRID,
) -> PValueCrossTab:
    """Matched comparison of two statistics' empirical p-values.

    Both statistics are evaluated on the same replicates and referred to
    the same shared null sample, preserving the matched design. P-values
    are binned closed-on-the-left at ``bins``; replicates on which a
    statistic is undefined get p = 1 and land in the last bin.
    """
    battery = validate_battery((stat_a, stat_b)) if stat_a != stat_b else validate_battery((stat_a,))
    edges = tuple(float(e) for e in bins)
    if any(not 0.0 < e < 1.0 for e in edges) or list(edges) != sorted(set(edges)):
        raise InputError(f"bin edges {edges!r} must be strictly increasing within (0, 1)")

    null_seed, rep_seed = (int(x) for x in np.random.SeedSequence(seed).generate_state(2))
    null_cells = simulate_cells(scenario.null_scenario(), b_null, null_seed)
    null_values = evaluate_battery(null_cells, battery, scenario.two_sided, grid)
    rep_cells = simulate_cells(scenario, b_reps, rep_seed)
    rep_values = evaluate_battery(rep_cells, battery, scenario.two_sided, grid)

    all_edges = np.array([*edges, 1.0 + 1e-12])
    n_bins = len(edges) + 1

    def bin_of(name: str) -> np.ndarray:
        null_sorted = np.sort(null_values[name])
        null_sorted = null_sorted[~np.isnan(null_sorted)]
        pvals = _empirical_pvalues(null_sorted, rep_values[name])
        return np.searchsorted(all_edges, pvals, side="right")

    ia = bin_of(stat_a)
    ib = bin_of(stat_b) if stat_b != stat_a else ia
    counts = np.zeros((n_bins, n_bins), dtype=int)
    np.add.at(counts, (ia, ib), 1)
    return PValueCrossTab(
        counts=counts,
        bin_edges=edges,
        stat_a=stat_a,
        stat_b=stat_b,
        b_null=b_null,
        b_reps=b_reps,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# permutation p-values
# ---------------------------------------------------------------------------

UNDEFINED_OBSERVED = "statistic {} is undefined on the observed table"


def _permutation_setup(table: GenotypeTable, battery, two_sided: bool, grid, observed=None):
    """Column margins, case count and observed decision values of a table."""
    if not table.is_integral():
        raise DegenerateTable("permutation requires an integer-valued table")
    margins = [int(round(m)) for m in (table.n0, table.n1, table.n2)]
    n_cases = int(round(table.r))
    n = sum(margins)
    if n_cases <= 0 or n_cases >= n:
        raise DegenerateTable("both groups must be nonempty for permutation")
    if observed is None:
        observed = evaluate_battery(table.to_array(), battery, two_sided, grid)
    return margins, n_cases, {name: float(observed[name][0]) for name in battery}


def _permuted_cells(case_rows, margins) -> np.ndarray:
    """(B, 6) column-major cells from permuted case rows and the fixed column margins."""
    case_rows = np.asarray(case_rows, dtype=float).T
    out = np.empty((6, case_rows.shape[1]))
    out[0:3] = case_rows
    np.subtract(np.asarray(margins, dtype=float)[:, None], case_rows, out=out[3:6])
    return out.T


def permutation_pvalue(
    table: GenotypeTable,
    battery,
    b: int,
    *,
    seed: int,
    two_sided: bool = True,
    grid=DEFAULT_GRID,
    observed=None,
) -> dict[str, float]:
    """Monte Carlo permutation p-values (1 + #{perm >= obs}) / (1 + B).

    Case/control labels are permuted holding the genotype column totals
    fixed, i.e. the case row is resampled from the multivariate
    hypergeometric given margins. One set of B permuted tables is drawn
    from ``seed`` and the whole battery is evaluated on it, so every
    statistic of the table is referred to the same permutations (a
    matched design) and each p-value equals the one for that statistic
    alone. Permuted tables on which a statistic is undefined count as
    non-exceedances; a statistic undefined on the observed table maps to
    NaN. A table that cannot be permuted raises :class:`DegenerateTable`.

    A caller that has already evaluated the battery on ``table`` (same
    sidedness and grid) passes the result of :func:`evaluate_battery` as
    ``observed`` so that it is not evaluated twice.
    """
    if b < 0:
        raise InputError("permutation count must be nonnegative")
    battery = validate_battery(battery)
    margins, n_cases, observed = _permutation_setup(table, battery, two_sided, grid, observed)
    exceed = dict.fromkeys(battery, 0)
    if b > 0:
        rng = np.random.default_rng(seed)
        case_rows = rng.multivariate_hypergeometric(margins, n_cases, size=b, method="marginals")
        values = evaluate_battery(_permuted_cells(case_rows, margins), battery, two_sided, grid)
        # NaN compares False on either side
        exceed = {name: int(np.sum(values[name] >= observed[name])) for name in battery}
    return {name: math.nan if math.isnan(observed[name]) else (1 + exceed[name]) / (1 + b)
            for name in battery}


def exact_permutation_pvalue(
    table: GenotypeTable,
    statistic: str,
    two_sided: bool = True,
    grid=DEFAULT_GRID,
) -> Fraction:
    """Exact permutation p-value by enumerating the hypergeometric support.

    Feasible for small tables. Returns the exact rational
    P(statistic >= observed) under label permutation; undefined permuted
    statistics count as non-exceedances, matching the Monte Carlo mode.
    """
    margins, n_cases, observed = _permutation_setup(table, (statistic,), two_sided, grid)
    observed = observed[statistic]
    if math.isnan(observed):
        raise DegenerateTable(UNDEFINED_OBSERVED.format(statistic))
    n0, n1, n2 = margins
    support = []
    for a0 in range(min(n0, n_cases) + 1):
        for a1 in range(min(n1, n_cases - a0) + 1):
            a2 = n_cases - a0 - a1
            if 0 <= a2 <= n2:
                support.append((a0, a1, a2))
    values = evaluate_battery(_permuted_cells(support, margins), (statistic,), two_sided, grid)[statistic]
    numer = Fraction(0)
    denom = Fraction(math.comb(n0 + n1 + n2, n_cases))
    for (a0, a1, a2), v in zip(support, values):
        if not math.isnan(v) and v >= observed:
            numer += Fraction(math.comb(n0, a0) * math.comb(n1, a1) * math.comb(n2, a2))
    return numer / denom


# ---------------------------------------------------------------------------
# multivariate-normal approximation for MAX critical values
# ---------------------------------------------------------------------------

def normal_approx_critical_max(
    rho: np.ndarray,
    alpha: float = 0.05,
    b: int = 200_000,
    two_sided: bool = False,
    *,
    seed: int,
) -> float:
    """Approximate upper-alpha threshold for a maximum of correlated normals.

    Draws B multivariate normal vectors with the given correlation matrix
    and returns the empirical quantile of the coordinate maximum
    (of absolute values when two-sided). This is a labeled approximation:
    the default protocol simulates the statistics from null data instead.
    """
    rho = np.atleast_2d(np.asarray(rho, dtype=float))
    k = rho.shape[0]
    if rho.shape != (k, k) or not np.allclose(rho, rho.T, atol=1e-9):
        raise NotPSD("correlation matrix must be square and symmetric")
    if not np.allclose(np.diag(rho), 1.0, atol=1e-9):
        raise NotPSD("correlation matrix must have a unit diagonal")
    eigmin = float(np.linalg.eigvalsh(rho).min())
    if eigmin < -1e-9:
        raise NotPSD(f"correlation matrix has negative eigenvalue {eigmin!r}")
    rng = np.random.default_rng(seed)
    draws = rng.multivariate_normal(np.zeros(k), rho, size=b, method="eigh", check_valid="ignore")
    decided = np.abs(draws) if two_sided else draws
    return empirical_upper_quantile(decided.max(axis=1), alpha)
