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
spawned from (seed, chunk index). One task per chunk, on one thread per
usable core, draws the chunk into a buffer of its own, scores it there
(battery, correlation plug-ins, or the cells themselves) and hands the
values on: into its own column slice of the output, into each
statistic's upper tail, or into its counts. One pool runs the chunks of
several runs (a power call's scenarios), each run with its own streams.
Every kernel works row by row, so the result does not depend on the core
count, the order the chunks run in or the runs beside it: it is
bit-identical for a given (scenario, battery, B, seed). Permutation
p-values run on the calling thread, with no pool, one task after
another. A task is a run of consecutive tables whose draws total at
most ``CHUNK_SIZE`` (a table with more is a task alone), and its tables'
distinct rows are scored in one call, as a chunk is. A call builds one
generator from ``default_rng(seed)`` and restores it to that start
state before each table, so every table draws what a fresh
``default_rng(seed)`` gives and a p-value does not depend on the tables
beside it.

Layout
------
One table is six cells (r0, r1, r2, s0, s1, s2) and a batch of tables one
(N, 6) array, as everywhere in the package. A chunk's (count, 6) cells
are the transpose of a C-ordered (6, count) buffer, so each cell column
is contiguous for the kernels. Every null run, for critical values and
for the crosstab, keeps each statistic's upper tail in a buffer of about
alpha B + ``CHUNK_SIZE`` values (:class:`_UpperTails`); a power run keeps
each statistic's counts of exceedances and NaNs. Only the crosstab's
replicates, the correlations and the cells keep a (k, B) array of k
values per table (2 statistics, 3 correlations, or 6 cells). Each
running task adds one chunk and its kernel temporaries. Permutation
p-values take all margins from one (N, 6) array of counts at once. Each
task reduces each of its tables' B draws to its distinct rows and
multiplicities and scores them in one call, whose kernel passes take at
most ``CHUNK_SIZE`` rows, then counts each statistic's weighted
exceedances in place in that statistic's values. Memory is
O(``CHUNK_SIZE`` + one table's draws), whatever the number of tables.

Quantile convention
-------------------
With the sorted null sample v(1..B), the alpha-level threshold is
v(ceil((1-alpha) B)) and rejection means decision value > threshold
(strictly), which keeps the size at or below alpha for atomless
statistics.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .battery import CHUNK_SIZE, evaluate_battery, validate_battery
from .errors import DegenerateTable, InputError, ScenarioError
from .robust import CorrelationTriple, batch_correlations
from .scenarios import Scenario, distinct_nulls
from .tables import cell_array

MAX_PERMUTED_TOTAL = 10**9  # numpy's "marginals" hypergeometric sampler needs a table total below it
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalValueSet:
    """Empirical upper-alpha thresholds per statistic under one null scenario."""

    thresholds: dict[str, float]
    error_rates: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PowerRow:
    """Rejection rates (and their Monte Carlo SEs) for one scenario."""

    rates: dict[str, float]
    standard_errors: dict[str, float]
    error_rates: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class MeanCorrelations:
    """Replicate averages of the plug-in correlation triple, over the replicates where it exists."""

    triple: CorrelationTriple
    failure_rate: float = 0.0


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _sample_chunk(strata, rng: np.random.Generator, out: np.ndarray) -> None:
    """Add one chunk's draws into ``out`` of shape (6, count); fixed draw order per stratum."""
    count = out.shape[1]
    for case_probs, ctrl_probs, n_cases, n_controls in strata:
        out[0:3] += rng.multinomial(n_cases, case_probs, size=count).T
        out[3:6] += rng.multinomial(n_controls, ctrl_probs, size=count).T


def validate_alpha(alpha: float) -> None:
    """Reject a level outside (0, 1), NaN included."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha {alpha!r} must lie strictly in (0, 1)")


def validate_replicates(b: int, name: str) -> None:
    """Reject a replicate count below 1, naming its parameter."""
    if b <= 0:
        raise InputError(f"replicate count must be positive, got {name}={b}")


def _score_chunks(runs) -> None:
    """Draw runs of b >= 1 tables chunk by chunk on one pool of min(_CORES, chunks) threads.

    Each run is ``(scenario, b, seed, score, consume)``; ``consume(lo, values)``
    takes the ``score`` of each of its chunks. The first chunk to raise, in
    chunk order, re-raises its exception here, once every chunk has ended.
    """
    tasks = []
    for scenario, b, seed, score, consume in runs:
        seeds = np.random.SeedSequence(seed).spawn(-(-b // CHUNK_SIZE))
        tasks += [(scenario, b, score, consume, lo, s) for lo, s in zip(range(0, b, CHUNK_SIZE), seeds)]

    def run(task) -> None:
        scenario, b, score, consume, lo, seed = task
        cells = np.zeros((6, min(CHUNK_SIZE, b - lo)))
        _sample_chunk(scenario.strata(), np.random.default_rng(seed), cells)
        if scenario.correction:
            cells += 0.5
        consume(lo, score(cells.T))

    with ThreadPoolExecutor(max(1, min(_CORES, len(tasks)))) as pool:
        list(pool.map(run, tasks))


def _score_array(scenario: Scenario, b: int, seed: int, score, width: int) -> np.ndarray:
    """(width, b) array: ``score`` maps each chunk's (count, 6) cells to width vectors."""
    validate_replicates(b, "b")
    out = np.empty((width, b))

    def write(lo: int, values) -> None:
        for row, v in zip(out[:, lo:lo + CHUNK_SIZE], values, strict=True):
            row[:] = v

    _score_chunks([(scenario, b, seed, score, write)])
    return out


class _UpperTails:
    """NaN count and top finite values of ``width`` samples streamed in chunks, under a lock.

    m bounds the alpha-level order statistic's rank from the top among b
    values, or among fewer finite ones. A buffer holds m + CHUNK_SIZE (at
    most b) values; a chunk appends those above the floor, the m-th largest
    kept so far, and an overflow first partitions the buffer to its top m,
    after which one chunk always fits. So a buffer keeps the sample's top m,
    ties included, in any chunk order.

    m also makes :meth:`pvalues` exact below alpha: an observation that at
    most m of the n finite values reach is counted among the top m, and one
    that more reach has p >= (1 + m) / (n + 1) > alpha, as m >= alpha b + 2.
    """

    def __init__(self, width: int, b: int, alpha: float):
        self.b, self.alpha = b, alpha
        # two spare ranks absorb rounding in the float products (1 - alpha) n
        self.m = b - min(max(math.ceil((1.0 - alpha) * b), 1), b) + 3
        self.buffers = np.empty((width, min(self.m + CHUNK_SIZE, b)))
        self.sizes, self.nans, self.floors = [0] * width, [0] * width, [None] * width
        self.lock = threading.Lock()

    def __call__(self, lo: int, values) -> None:
        # filtered before the lock: floors only rise, so a stale floor only keeps spares
        chunks = []
        for v, floor in zip(values, self.floors):
            nan = np.isnan(v)
            chunks.append((int(np.count_nonzero(nan)), v[~nan] if floor is None else v[v > floor]))
        with self.lock:
            for i, (nans, kept) in enumerate(chunks):
                buffer, size = self.buffers[i], self.sizes[i]
                self.nans[i] += nans
                if size + kept.size > buffer.size:
                    buffer[:size].partition(size - self.m)
                    buffer[:self.m] = buffer[size - self.m:size]
                    size = self.m
                    floor = self.floors[i] = buffer[0]
                    kept = kept[kept > floor]
                buffer[size:size + kept.size] = kept
                self.sizes[i] = size + kept.size

    def quantile(self, i: int) -> float:
        """:func:`empirical_upper_quantile` of sample i, picked from its tail."""
        return empirical_upper_quantile(self.buffers[i, :self.sizes[i]], self.alpha,
                                        size=self.b - self.nans[i])

    def pvalues(self, i: int, observed: np.ndarray) -> np.ndarray:
        """(1 + #null >= obs) / (n + 1) over the n finite values of sample i, exact below alpha.

        An undefined (NaN) observation gets p = 1, so it is never counted as
        significant, as in power and permutation.
        """
        tail = np.sort(self.buffers[i, :self.sizes[i]])
        n_ge = tail.size - np.searchsorted(tail, observed, side="left")
        return np.where(np.isnan(observed), 1.0, (1.0 + n_ge) / (self.b - self.nans[i] + 1.0))


def _battery_scorer(scenario: Scenario, battery):
    return lambda cells: evaluate_battery(cells, battery, scenario.two_sided).values()


def simulate_cells(scenario: Scenario, b: int, seed: int) -> np.ndarray:
    """(b, 6) table cells for a scenario, column-major (see Layout and Determinism)."""
    return _score_array(scenario, b, seed, np.transpose, 6).T


# ---------------------------------------------------------------------------
# empirical quantiles, critical values, power
# ---------------------------------------------------------------------------

def empirical_upper_quantile(values: np.ndarray, alpha: float, size: int | None = None) -> float:
    """v(ceil((1-alpha) n)) of the n sorted finite values, ignoring NaNs; found by selection.

    ``values`` may hold just the largest of ``size`` finite values, as
    long as they reach down to the one picked.
    """
    validate_alpha(alpha)
    values = np.asarray(values, dtype=float)
    nan = np.isnan(values)
    values = values[~nan] if nan.any() else values
    n = values.size if size is None else size
    if n == 0:
        raise InputError("no finite values to take a quantile of")
    k = min(max(math.ceil((1.0 - alpha) * n), 1), n)
    j = k - 1 - (n - values.size)  # its rank among the values given
    if j < 0:
        raise ValueError(f"the {values.size} largest of {n} values miss rank {k}")
    return float(np.partition(values, j)[j])


def estimate_critical_values(scenario: Scenario, battery, b: int = 200_000, alpha: float = 0.05, *,
                             seed: int) -> CriticalValueSet:
    """Empirical upper-alpha thresholds of each decision value under the null.

    Chunks stream into :class:`_UpperTails`, so memory is O(alpha B) per
    statistic; the thresholds equal :func:`empirical_upper_quantile` of
    the whole sample bit for bit. B below max(1000, ceil(10 / alpha)) is
    an :class:`InputError`, raised before any draw: with fewer than ten
    values above its rank a threshold is little more than the sample's
    maximum.
    """
    if not scenario.is_null:
        raise ScenarioError("critical values must be estimated under a null scenario")
    validate_alpha(alpha)
    need = max(1000, math.ceil(10 / alpha))
    if b < need:
        raise InputError(f"alpha={alpha:g} needs at least {need} null replicates, max(1000, ceil(10/alpha)); "
                         f"got {b}")
    battery = validate_battery(battery)
    tails = _UpperTails(len(battery), b, alpha)
    _score_chunks([(scenario, b, seed, _battery_scorer(scenario, battery), tails)])
    thresholds = {}
    for i, name in enumerate(battery):
        try:
            thresholds[name] = tails.quantile(i)
        except InputError as exc:
            raise InputError(f"{exc} ({name}, scenario {scenario.label})") from None
    error_rates = {name: nans / b for name, nans in zip(battery, tails.nans) if nans}
    return CriticalValueSet(thresholds=thresholds, error_rates=error_rates)


def estimate_power(scenarios, battery, b: int = 10_000, *, b_null: int = 200_000, alpha: float = 0.05,
                   seed: int, null_seed: int) -> list[PowerRow]:
    """Rejection rates of each statistic at level ``alpha``, one :class:`PowerRow` per scenario of a pack.

    Each distinct null (:func:`~trendmax.scenarios.distinct_nulls`) gets its
    thresholds from :func:`estimate_critical_values` with ``b_null`` and
    ``null_seed``, one null at a time; ``b``, ``alpha``, the battery and
    ``b_null`` (against alpha, by the first null) are checked before any
    draw. Then each scenario scores b tables from ``seed``, as a call with
    it alone would; the chunks of all scenarios share one pool and leave
    only counts, O(k) per scenario. Replicates where a statistic is
    undefined never reject and are reported in ``error_rates``. With ``null_seed == seed``, as the CLI passes today,
    a null scenario's size row is scored on the draws that set its
    thresholds.
    """
    validate_replicates(b, "b")
    validate_alpha(alpha)
    battery = validate_battery(battery)
    criticals = {key: estimate_critical_values(null, battery, b_null, alpha, seed=null_seed).thresholds
                 for key, null in distinct_nulls(scenarios).items()}
    # per scenario, chunk and statistic: exceedances and NaNs; each chunk writes its own row
    counts = np.zeros((len(scenarios), -(-b // CHUNK_SIZE), len(battery), 2), dtype=np.int64)

    def counter(i: int, thresholds):
        def count(lo: int, values) -> None:
            # NaN compares False
            counts[i, lo // CHUNK_SIZE] = [(np.count_nonzero(v > t), np.count_nonzero(np.isnan(v)))
                                           for v, t in zip(values, thresholds, strict=True)]
        return count

    _score_chunks([(scenario, b, seed, _battery_scorer(scenario, battery),
                    counter(i, [criticals[scenario.key()][name] for name in battery]))
                   for i, scenario in enumerate(scenarios)])
    rows = []
    for totals in counts.sum(axis=1).tolist():
        rates = {name: exceed / b for name, (exceed, _) in zip(battery, totals)}
        ses = {name: math.sqrt(rate * (1.0 - rate) / b) for name, rate in rates.items()}
        errors = {name: nans / b for name, (_, nans) in zip(battery, totals) if nans}
        rows.append(PowerRow(rates=rates, standard_errors=ses, error_rates=errors))
    return rows


def mean_correlation_matrix(
    scenario: Scenario,
    b: int = 10_000,
    *,
    seed: int,
) -> MeanCorrelations:
    """Replicate average of the plug-in correlation triple at n_i / n."""
    rho = _score_array(scenario, b, seed, batch_correlations, 3)
    bad = np.isnan(rho).any(axis=0)
    if bad.all():
        raise DegenerateTable(f"correlation estimation failed on every replicate (scenario {scenario.label})")
    triple = CorrelationTriple(*(float(r[~bad].mean()) for r in rho))
    return MeanCorrelations(triple, failure_rate=float(bad.mean()))


# ---------------------------------------------------------------------------
# matched p-value cross-tabulation
# ---------------------------------------------------------------------------

def pvalue_crosstab(scenarios, pair, b_null: int = 200_000, b_reps: int = 5_000,
                    bins: tuple[float, ...] = (0.01, 0.05, 0.10), *, seed: int) -> list[np.ndarray]:
    """Matched comparison of two statistics' empirical p-values: a (k+1, k+1) count table per scenario.

    ``pair`` is a battery of one or two statistics, ``stat_a`` first and
    ``stat_b`` last, evaluated on the same replicates and referred to the
    same shared null sample, preserving the matched design. The k edges of
    ``bins`` give bins closed on the left, [0, e1), ..., [ek, 1]; entry [i, j]
    counts the replicates whose ``stat_a`` p-value falls in bin i and
    ``stat_b`` p-value in bin j. An undefined statistic gets p = 1.

    Only p-values below the largest edge tell bins apart, so the null
    streams into :class:`_UpperTails` at that level: memory is O(max(bins) B_null).
    Each distinct null (``key()``) is simulated once and its scenarios'
    replicates are scored against it, one null's tails at a time; every null
    draws from one seed, so a scenario's table is the one it gets alone.
    """
    pair = validate_battery(pair)
    edges = tuple(float(e) for e in bins)
    if not edges or any(not 0.0 < e < 1.0 for e in edges) or list(edges) != sorted(set(edges)):
        raise InputError(f"bin edges {edges!r} must be one or more strictly increasing values within (0, 1)")
    validate_replicates(b_null, "b_null")
    validate_replicates(b_reps, "b_reps")

    null_seed, rep_seed = (int(x) for x in np.random.SeedSequence(seed).generate_state(2))
    all_edges = np.array([*edges, 1.0 + 1e-12])
    counts = [np.zeros((all_edges.size, all_edges.size), dtype=int) for _ in scenarios]
    for key, null in distinct_nulls(scenarios).items():
        tails = _UpperTails(len(pair), b_null, edges[-1])
        _score_chunks([(null, b_null, null_seed, _battery_scorer(null, pair), tails)])
        for scenario, table in zip(scenarios, counts):
            if scenario.key() != key:
                continue
            reps = _score_array(scenario, b_reps, rep_seed, _battery_scorer(scenario, pair), len(pair))
            # with stat_a == stat_b the pair is that one statistic
            bin_a, bin_b = (np.searchsorted(all_edges, tails.pvalues(j, reps[j]), side="right")
                            for j in (0, len(pair) - 1))
            np.add.at(table, (bin_a, bin_b), 1)
    return counts


# ---------------------------------------------------------------------------
# permutation p-values
# ---------------------------------------------------------------------------

def _distinct_case_rows(margins, n_cases: int, b: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A table's b >= 1 permuted case rows, drawn from ``rng``: distinct (k, 3) rows, multiplicities.

    Each row is keyed by r1 (n2 + 1) + r2, as r0 follows from the case
    count; the sorted keys split where they change.
    """
    rows = rng.multivariate_hypergeometric(margins, n_cases, size=b, method="marginals")
    width = margins[2] + 1
    keys = rows[:, 1] * width
    keys += rows[:, 2]
    keys.sort()
    # change[i]: key i starts a run; the last entry closes the final run
    change = np.empty(b + 1, dtype=bool)
    change[0] = change[b] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:b])
    bounds = np.flatnonzero(change)
    distinct = np.empty((bounds.size - 1, 3), dtype=np.int64)
    np.divmod(keys[bounds[:-1]], width, out=(distinct[:, 1], distinct[:, 2]))
    np.subtract(n_cases - distinct[:, 1], distinct[:, 2], out=distinct[:, 0])
    return distinct, bounds[1:] - bounds[:-1]


def permutation_pvalues(raw, battery, b: int, *, seed: int, two_sided: bool = True,
                        observed=None, labels=None) -> dict[str, np.ndarray]:
    """Monte Carlo permutation p-values (1 + #{perm >= obs}) / (1 + B): an array per statistic.

    ``raw`` is (N, 6) cells of counts, any other shape an
    :class:`InputError`. Case/control labels are permuted holding the
    genotype column totals fixed: each table's B case rows are drawn from
    the multivariate hypergeometric by one generator, restored before each
    table to the start state of ``default_rng(seed)``, so each table draws
    what its own ``default_rng(seed)`` would. The battery is scored on the
    same permutations (a matched design), so each p-value equals the one
    for that statistic alone. Undefined permuted values count as
    non-exceedances. Each array holds one p-value per table, NaN where the
    statistic is undefined on the observed table; B = 0 draws nothing and
    gives p = 1. Before any draw, the first table that breaks a
    rule raises a :class:`DegenerateTable` naming its first broken rule and
    the table, `` (table i)`` or its entry of ``labels``: integer cells (to
    1e-9, then rounded), no negative count, a total below
    ``MAX_PERMUTED_TOTAL``, two nonempty groups.

    Margins fixed, a table's B draws repeat: each table's distinct permuted
    tables are scored once and their exceedances counted with the number of
    times each was drawn, an exact integer. The tables run as tasks, one
    after another on the calling thread, each task a run of consecutive
    tables whose draws total at most ``CHUNK_SIZE`` (a table with more is
    a task alone). A task's distinct rows, at most its draws, go to one
    :func:`evaluate_battery` call, whose kernel passes take at most
    ``CHUNK_SIZE`` rows, so memory is O(``CHUNK_SIZE`` + one table's B
    draws). Each task counts each statistic's exceedances in place in its
    values: a comparison with the observed value, a product with the
    multiplicities and one sum per table. Every kernel works row by row,
    so none of this changes a p-value.
    ``observed`` is the battery on ``raw`` (one row each, same battery and
    sidedness), if the caller has it.
    """
    if b < 0:
        raise InputError("permutation count must be nonnegative")
    raw, battery = cell_array(raw), validate_battery(battery)
    counts = np.rint(np.where(np.isfinite(raw), raw, 0.0))  # each rule on floats, before any integer cast
    with np.errstate(over="ignore"):  # a total past float range breaks the total rule
        totals, cases = counts.sum(axis=1), counts[:, :3].sum(axis=1)
    rules = {"permutation requires an integer-valued table": ~(np.abs(raw - counts) <= 1e-9).all(axis=1),
             "permutation requires nonnegative counts": (counts < 0).any(axis=1),
             f"permutation requires a total count below {MAX_PERMUTED_TOTAL:,}": totals >= MAX_PERMUTED_TOTAL,
             "both groups must be nonempty for permutation": (cases <= 0) | (cases >= totals)}
    bad = np.flatnonzero(np.any(list(rules.values()), axis=0))
    if bad.size:  # the first bad table, and the first rule it breaks
        name = f"table {bad[0]}" if labels is None else labels[bad[0]]
        raise DegenerateTable(f"{next(r for r, broken in rules.items() if broken[bad[0]])} ({name})")
    margins, n_cases = (counts[:, :3] + counts[:, 3:]).astype(np.int64), cases.astype(np.int64)
    if observed is None:
        observed = evaluate_battery(raw, battery, two_sided)
    if b == 0:
        return {name: np.where(np.isnan(observed[name]), np.nan, 1.0) for name in battery}
    obs = np.array([observed[name] for name in battery])  # (statistics, tables)
    pvalues = np.empty(obs.shape)

    rng = np.random.default_rng(seed)
    start = rng.bit_generator.state

    def draw(i: int) -> tuple[np.ndarray, np.ndarray]:
        rng.bit_generator.state = start  # each table draws what a fresh default_rng(seed) gives
        return _distinct_case_rows(margins[i], int(n_cases[i]), b, rng)

    per_task = max(1, CHUNK_SIZE // b)
    for lo in range(0, len(margins), per_task):  # a task: tables lo, ..., hi - 1 in one call
        hi = min(lo + per_task, len(margins))
        distinct, weights = zip(*map(draw, range(lo, hi)))
        sizes = [w.size for w in weights]
        cells = np.empty((6, sum(sizes)))
        cells[0:3] = np.concatenate(distinct).T
        np.subtract(np.repeat(margins[lo:hi], sizes, axis=0).T, cells[0:3], out=cells[3:6])
        values = evaluate_battery(cells.T, battery, two_sided)
        weight, starts = np.concatenate(weights).astype(float), np.cumsum([0, *sizes[:-1]])
        exceed = np.empty((len(battery), hi - lo))
        for count, v, o in zip(exceed, values.values(), obs[:, lo:hi]):
            # NaN compares False on either side; the weighted hits overwrite the
            # values, and as whole numbers their float sums are exact
            np.greater_equal(v, np.repeat(o, sizes), out=v)
            v *= weight
            np.add.reduceat(v, starts, out=count)
        pvalues[:, lo:hi] = np.where(np.isnan(obs[:, lo:hi]), np.nan, (1 + exceed) / (1 + b))
    return dict(zip(battery, pvalues))


def permutation_pvalue(table, battery, b: int, *, seed: int, two_sided: bool = True,
                       observed=None) -> dict[str, float]:
    """:func:`permutation_pvalues` of one table's six cells, as a (1, 6) array; raises its :class:`DegenerateTable`."""
    pvalues = permutation_pvalues([table], battery, b, seed=seed, two_sided=two_sided, observed=observed)
    return {name: float(p[0]) for name, p in pvalues.items()}
