import itertools
import json
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats as spstats
from scipy.special import chdtri, ndtr, ndtri, owens_t

from trendmax import (
    PenetranceModel,
    Scenario,
    ScenarioError,
    Stratum,
    DegenerateProportions,
    DegenerateTable,
    InputError,
    empirical_upper_quantile,
    estimate_critical_values,
    estimate_power,
    mean_correlation_matrix,
    penetrances_for_model,
    permutation_pvalue,
    permutation_pvalues,
    parse_scenarios,
    pvalue_crosstab,
    simulate_cells,
)
from trendmax.battery import (
    ALL_STATISTICS,
    DEFAULT_BATTERY,
    DEFAULT_GRID,
    chi2_1_tail,
    chi2_2_tail,
    evaluate_battery,
    evaluate_single,
    normal_tail,
    validate_battery,
)
from trendmax.population import hwe_genotype_freqs
from trendmax.robust import batch_correlations, max_tail, trend_angles, upper_point
from trendmax.scenarios import load_scenarios
import trendmax.montecarlo
import trendmax.robust
from trendmax.cli import UNDEFINED_OBSERVED
from trendmax.montecarlo import CHUNK_SIZE
from trendmax.tables import parse_table_record

from conftest import assert_bit_identical, count_kernel_passes, max_of

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

BATTERY = ("Z0", "Z_HALF", "Z1", "MERT", "MAX2", "MAX3", "CHI2_2DF", "T_P", "T_MAX")


def null_scenario(p=0.3, r=250, s=250) -> Scenario:
    return Scenario(population=(Stratum(p, r, s),), penetrances=None)


def alt_scenario(p=0.3, f2=0.02, kind="add", r=250, s=250) -> Scenario:
    return Scenario(population=(Stratum(p, r, s),), penetrances=penetrances_for_model(kind, 0.01, f2))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def fixed_strata(case_probs, ctrl_probs, n_cases, n_controls) -> SimpleNamespace:
    """A one-stratum scenario stand-in with given probabilities and no correction.

    Scenarios only admit allele frequencies and penetrances strictly inside
    (0, 1); the sampler itself reads just ``strata()`` and ``correction``.
    """
    return SimpleNamespace(strata=lambda: [(case_probs, ctrl_probs, n_cases, n_controls)],
                           correction=False)


def test_sample_table_degenerate_probs():
    cells = simulate_cells(fixed_strata((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 50, 30), 20, seed=0)
    assert np.array_equal(cells, np.tile([50.0, 0, 0, 30, 0, 0], (20, 1)))


def test_sample_table_row_sums():
    sc = fixed_strata((0.2, 0.5, 0.3), (0.4, 0.4, 0.2), 37, 91)
    cells = simulate_cells(sc, 50, seed=1)
    assert np.all(cells[:, 0:3].sum(axis=1) == 37)
    assert np.all(cells[:, 3:6].sum(axis=1) == 91)


def test_sample_table_frequencies_match_probs():
    case_probs, control_probs = (0.2, 0.5, 0.3), (0.4, 0.4, 0.2)
    b = 100_000
    cells = simulate_cells(fixed_strata(case_probs, control_probs, 1, 1), b, seed=2)
    for freq, p in zip(cells.mean(axis=0), (*case_probs, *control_probs)):
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / b)


def test_sample_mixture_degenerate_equals_single():
    pop = (Stratum(0.3, 100, 120), Stratum(0.3, 50, 80))
    sc = Scenario(population=pop, penetrances=None, correction=False)
    cells = simulate_cells(sc, 100, seed=3)
    assert np.all(cells[:, 0:3].sum(axis=1) == 150)
    assert np.all(cells[:, 3:6].sum(axis=1) == 200)


def test_sample_mixture_null_rows_same_distribution():
    pop = (Stratum(0.1, 100, 100), Stratum(0.5, 100, 100))
    sc = Scenario(population=pop, penetrances=None, correction=False)
    b = 3000
    cells = simulate_cells(sc, b, seed=4)
    case_means, ctrl_means = cells[:, 0:3].mean(axis=0), cells[:, 3:6].mean(axis=0)
    assert np.allclose(case_means, ctrl_means, atol=4 * math.sqrt(200 * 0.25 / b) + 0.5)


def test_simulate_cells_correction_flag():
    sc = null_scenario()
    cells = simulate_cells(sc, 100, seed=5)
    assert np.all(cells % 1 == 0.5)
    raw = simulate_cells(
        Scenario(population=(Stratum(0.3, 250, 250),), penetrances=None, correction=False),
        100, seed=5)
    assert np.all(raw % 1 == 0)


def row_major_reference(scenario: Scenario, b: int, seed: int) -> np.ndarray:
    """The sampler's draws laid out row-major: per-chunk (count, 6) blocks, concatenated."""
    counts = [CHUNK_SIZE] * (b // CHUNK_SIZE) + ([b % CHUNK_SIZE] if b % CHUNK_SIZE else [])
    parts = []
    for count, chunk_seed in zip(counts, np.random.SeedSequence(seed).spawn(len(counts))):
        rng = np.random.default_rng(chunk_seed)
        case = np.zeros((count, 3))
        ctrl = np.zeros((count, 3))
        for case_probs, ctrl_probs, n_cases, n_controls in scenario.strata():
            case += rng.multinomial(n_cases, case_probs, size=count)
            ctrl += rng.multinomial(n_controls, ctrl_probs, size=count)
        cells = np.concatenate([case, ctrl], axis=1)
        if scenario.correction:
            cells += 0.5
        parts.append(cells)
    return np.concatenate(parts, axis=0)


@pytest.mark.parametrize("correction", [True, False])
@pytest.mark.parametrize("population", [
    (Stratum(0.3, 250, 250),),
    (Stratum(0.1, 150, 120), Stratum(0.4, 100, 130)),
])
def test_simulate_cells_matches_row_major_reference(population, correction, monkeypatch):
    sc = Scenario(population=population, penetrances=penetrances_for_model("add", 0.01, 0.03),
                  correction=correction)
    b = 2 * CHUNK_SIZE + 137  # three chunks, the last one short
    reference = row_major_reference(sc, b, seed=11)
    for cores in (1, 2, 3):
        monkeypatch.setattr(trendmax.montecarlo, "_CORES", cores)
        cells = simulate_cells(sc, b, seed=11)
        assert cells.shape == (b, 6)
        assert np.array_equal(cells, reference), f"{cores} cores"
        for j in range(6):
            assert cells[:, j].flags.c_contiguous


def test_critical_values_do_not_depend_on_core_count(monkeypatch):
    # uncorrected small tables, so many values are NaN; the tail keepers
    # merge chunks under a lock, and a lost merge would change a NaN count
    # or a threshold
    sc = Scenario(population=(Stratum(0.05, 20, 20),), penetrances=None, correction=False)
    results = []
    interval = sys.getswitchinterval()
    for cores in (1, 4, 8):
        monkeypatch.setattr(trendmax.montecarlo, "_CORES", cores)
        sys.setswitchinterval(1e-6 if cores == 8 else interval)
        try:
            cvs = estimate_critical_values(sc, BATTERY, b=6 * CHUNK_SIZE + 11, seed=13)
        finally:
            sys.setswitchinterval(interval)
        results.append((cvs.thresholds, cvs.error_rates))
    assert results[0][1]
    assert results[0] == results[1] == results[2]


def test_simulate_cells_with_more_threads_than_cores_under_frequent_switching(monkeypatch):
    sc = Scenario(population=(Stratum(0.1, 150, 120), Stratum(0.4, 100, 130)), penetrances=None)
    b = 8 * CHUNK_SIZE
    monkeypatch.setattr(trendmax.montecarlo, "_CORES", 1)
    serial = simulate_cells(sc, b, seed=17)
    monkeypatch.setattr(trendmax.montecarlo, "_CORES", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = simulate_cells(sc, b, seed=17)
    finally:
        sys.setswitchinterval(interval)
    # a lost or doubled update would break the equality and the row totals
    assert np.array_equal(threaded, serial)
    assert np.all(threaded[:, 0:3].sum(axis=1) == 250 + 1.5)
    assert np.all(threaded[:, 3:6].sum(axis=1) == 250 + 1.5)


def test_simulate_cells_raises_a_chunk_error_and_returns_nothing(monkeypatch):
    sample_chunk = trendmax.montecarlo._sample_chunk

    def failing_on_chunk_1(strata, rng, out):
        if rng.bit_generator.seed_seq.spawn_key == (1,):
            raise RuntimeError("chunk 1 failed")
        sample_chunk(strata, rng, out)

    monkeypatch.setattr(trendmax.montecarlo, "_CORES", 2)
    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", failing_on_chunk_1)
    # the error reaches the caller, so no partly filled array is returned
    with pytest.raises(RuntimeError, match="chunk 1 failed"):
        simulate_cells(null_scenario(), 3 * CHUNK_SIZE, seed=5)


# ---------------------------------------------------------------------------
# per-chunk scoring against the whole-batch pipeline
# ---------------------------------------------------------------------------

GRID = (0.0, 0.2, 0.35, 0.5, 0.9, 1.0)
ALL_ON_GRID = validate_battery((*ALL_STATISTICS, max_of(GRID)))
ENGINE_B = 2 * CHUNK_SIZE + 137  # three chunks, the last one short


def engine_scenario(population, two_sided, correction) -> Scenario:
    return Scenario(population=population, penetrances=penetrances_for_model("add", 0.01, 0.03),
                    correction=correction, two_sided=two_sided)


ENGINE_CASES = pytest.mark.parametrize("population, size, two_sided", [
    ((Stratum(0.3, 250, 250),), 250, True),
    ((Stratum(0.1, 150, 120), Stratum(0.4, 100, 130)), 250, False),
    ((Stratum(0.05, 20, 20),), 20, True),  # uncorrected, many statistics are undefined
])


def whole_sample_pvalues(null: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """(1 + #null >= obs) / (n + 1) from the n sorted non-NaN null values; p = 1 for a NaN observation."""
    null_sorted = np.sort(null)
    null_sorted = null_sorted[~np.isnan(null_sorted)]
    n_ge = null_sorted.size - np.searchsorted(null_sorted, observed, side="left")
    return np.where(np.isnan(observed), 1.0, (1.0 + n_ge) / (null_sorted.size + 1.0))


def whole_sample_counts(null_values, rep_values, stat_a: str, stat_b: str, bins) -> np.ndarray:
    """Crosstab counts of the replicates' p-values against the whole null sample."""
    all_edges = np.array([*bins, 1.0 + 1e-12])
    bin_of = {name: np.searchsorted(all_edges, whole_sample_pvalues(null_values[name], rep_values[name]),
                                    side="right") for name in (stat_a, stat_b)}
    counts = np.zeros((all_edges.size, all_edges.size), dtype=int)
    np.add.at(counts, (bin_of[stat_a], bin_of[stat_b]), 1)
    return counts


@pytest.mark.parametrize("correction", [True, False])
@ENGINE_CASES
def test_entry_points_score_what_the_whole_batch_scores(population, size, two_sided, correction,
                                                        monkeypatch):
    sc = engine_scenario(population, two_sided, correction)
    used = []
    score_array = trendmax.montecarlo._score_array

    def recording(scenario, b, seed, score, width):
        values = score_array(scenario, b, seed, score, width)
        used.append(((scenario, b, seed), values))
        return values

    monkeypatch.setattr(trendmax.montecarlo, "_score_array", recording)
    null_cells = row_major_reference(sc.null_scenario(), ENGINE_B, 41)
    # the null runs stream their values into the tail keepers, so they leave no array
    battery = ALL_ON_GRID
    null_values = evaluate_battery(null_cells, battery, two_sided)
    alt_cells = row_major_reference(sc, ENGINE_B, 42)
    alt_values = evaluate_battery(alt_cells, battery, two_sided)
    crosstab_battery = validate_battery((max_of(GRID), "T_MAX"))
    null_seed, rep_seed = (int(x) for x in np.random.SeedSequence(43).generate_state(2))
    rep_values = evaluate_battery(row_major_reference(sc, ENGINE_B, rep_seed),
                                  crosstab_battery, two_sided)
    crosstab_null = evaluate_battery(row_major_reference(sc.null_scenario(), ENGINE_B, null_seed),
                                     crosstab_battery, two_sided)
    for cores in (1, 2, 3):
        monkeypatch.setattr(trendmax.montecarlo, "_CORES", cores)
        used.clear()
        cvs = estimate_critical_values(sc.null_scenario(), battery, b=ENGINE_B, seed=41)
        [row] = estimate_power([sc], battery, b=ENGINE_B, b_null=ENGINE_B, seed=42, null_seed=41)
        [counts] = pvalue_crosstab([sc], crosstab_battery, b_null=ENGINE_B, b_reps=ENGINE_B, seed=43)
        # power keeps counts and the nulls keep tails, so only the crosstab's replicates come through here
        assert len(used) == 1
        [(key, values)] = used
        assert key == (sc, ENGINE_B, rep_seed)
        assert values.shape == (len(crosstab_battery), ENGINE_B)
        for name, row_values in zip(crosstab_battery, values, strict=True):
            assert_bit_identical(row_values, rep_values[name])
            assert row_values.flags.c_contiguous
        assert np.array_equal(counts, whole_sample_counts(crosstab_null, rep_values, *crosstab_battery,
                                                          (0.01, 0.05, 0.10)))
        for name in battery:
            assert cvs.thresholds[name] == empirical_upper_quantile(null_values[name], 0.05)
            assert cvs.error_rates.get(name, 0.0) == float(np.isnan(null_values[name]).mean())
            rate = float(np.sum(alt_values[name] > cvs.thresholds[name]) / ENGINE_B)
            assert row.rates[name] == rate
            assert row.error_rates.get(name, 0.0) == float(np.isnan(alt_values[name]).mean())
    if not correction and size == 20:
        assert cvs.error_rates and row.error_rates


@pytest.mark.parametrize("correction", [True, False])
@ENGINE_CASES
def test_mean_correlations_equal_the_whole_batch_mean(population, size, two_sided, correction,
                                                      monkeypatch):
    sc = engine_scenario(population, two_sided, correction)
    rho = np.array(batch_correlations(row_major_reference(sc, ENGINE_B, seed=44)))
    bad = np.isnan(rho).any(axis=0)
    for cores in (1, 2, 3):
        monkeypatch.setattr(trendmax.montecarlo, "_CORES", cores)
        mc = mean_correlation_matrix(sc, ENGINE_B, seed=44)
        assert mc.triple == tuple(float(r[~bad].mean()) for r in rho)
        assert mc.failure_rate == float(bad.mean())


def test_a_scorer_error_on_chunk_1_reaches_every_caller(monkeypatch):
    sc = alt_scenario()
    sample_chunk = trendmax.montecarlo._sample_chunk
    chunk_1_buffers = []

    def marking_chunk_1(strata, rng, out):
        if rng.bit_generator.seed_seq.spawn_key == (1,):
            chunk_1_buffers.append(out)
        sample_chunk(strata, rng, out)

    def failing_on_chunk_1(kernel):
        def scorer(cells, *args):
            if any(cells.base is buffer for buffer in chunk_1_buffers):
                raise RuntimeError("chunk 1 failed")
            return kernel(cells, *args)
        return scorer

    monkeypatch.setattr(trendmax.montecarlo, "_CORES", 2)
    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", marking_chunk_1)
    for kernel in ("evaluate_battery", "batch_correlations"):
        monkeypatch.setattr(trendmax.montecarlo, kernel,
                            failing_on_chunk_1(getattr(trendmax.montecarlo, kernel)))
    calls = [
        lambda: estimate_critical_values(sc.null_scenario(), ("MAX3",), b=ENGINE_B, seed=46),
        # a one-chunk null, so chunk 1 is the counting pass's
        lambda: estimate_power([sc], ("MAX3",), b=ENGINE_B, b_null=1_000, seed=47, null_seed=45),
        lambda: mean_correlation_matrix(sc, ENGINE_B, seed=47),
        lambda: pvalue_crosstab([sc], ("MAX3", "Z0"), b_null=ENGINE_B, b_reps=1_000, seed=48),
    ]
    for call in calls:
        with pytest.raises(RuntimeError, match="chunk 1 failed"):
            call()


def power_pack() -> list:
    """Five scenarios, each on a null of its own; the last one is uncorrected, with undefined values."""
    return [replace(sc, label=f"pair{i}") for i, sc in enumerate([
        alt_scenario(),
        alt_scenario(p=0.1, kind="rec", f2=0.05),
        null_scenario(p=0.5),
        engine_scenario((Stratum(0.1, 150, 120), Stratum(0.4, 100, 130)), False, True),
        engine_scenario((Stratum(0.05, 20, 20),), True, False),
    ])]


def pack_power(scenarios, battery, b: int, seed: int) -> list:
    """:func:`estimate_power` of ``scenarios`` against thresholds from 2,000 null tables of seed 61."""
    return estimate_power(scenarios, battery, b, b_null=2_000, seed=seed, null_seed=61)


def test_power_pairs_in_one_call_equal_the_one_pair_calls(monkeypatch):
    pairs = power_pack()
    monkeypatch.setattr(trendmax.montecarlo, "_CORES", 1)
    alone = [row for pair in pairs for row in pack_power([pair], ALL_ON_GRID, ENGINE_B, 62)]
    assert alone[-1].error_rates
    interval = sys.getswitchinterval()
    for cores in (1, 2, 8):
        monkeypatch.setattr(trendmax.montecarlo, "_CORES", cores)
        # more threads than cores, switching often: a lost count would change a rate
        sys.setswitchinterval(1e-6 if cores == 8 else interval)
        try:
            rows = pack_power(pairs, ALL_ON_GRID, ENGINE_B, 62)
        finally:
            sys.setswitchinterval(interval)
        assert rows == alone, f"{cores} cores"
        # distinct rows, so the equality pins their order
        assert all(a != b for a, b in itertools.combinations(rows, 2))
    assert pack_power([], ALL_ON_GRID, ENGINE_B, 62) == []


def test_the_chunks_of_two_pairs_run_side_by_side(monkeypatch):
    pairs = power_pack()[:2]
    alternatives = [sc.strata() for sc in pairs]
    sample_chunk = trendmax.montecarlo._sample_chunk
    barrier = threading.Barrier(2, timeout=5)

    def meeting(strata, rng, out):
        if strata in alternatives:  # the nulls run one at a time, before the alternatives
            barrier.wait()  # each pair is one chunk, so this returns only if both run at once
        sample_chunk(strata, rng, out)

    monkeypatch.setattr(trendmax.montecarlo, "_CORES", 2)
    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", meeting)
    rows = pack_power(pairs, ("MAX3", "Z0"), 1_000, 63)
    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", sample_chunk)
    assert rows == [row for pair in pairs for row in pack_power([pair], ("MAX3", "Z0"), 1_000, 63)]


def test_an_error_in_one_pairs_chunk_reaches_the_caller(monkeypatch):
    pairs = power_pack()
    failing = pairs[1].strata()
    sample_chunk = trendmax.montecarlo._sample_chunk

    def failing_on_pair_1(strata, rng, out):
        if strata == failing:
            raise RuntimeError("pair 1 failed")
        sample_chunk(strata, rng, out)

    monkeypatch.setattr(trendmax.montecarlo, "_CORES", 2)
    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", failing_on_pair_1)
    with pytest.raises(RuntimeError, match="pair 1 failed"):
        pack_power(pairs, ("MAX3",), ENGINE_B, 65)


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_peak_memory_holds_the_values_and_a_few_chunks(monkeypatch):
    # 13 decision values x 200,000 tables are 20.8 MB; sampling the whole
    # batch before scoring it peaked at 52 MB here, and at 42 MB on the
    # crosstab. The crosstab's null keeps about 10% of its 2 x 200,000
    # values plus a chunk: it peaked at 8.4 MB holding them all, 4.9 MB
    # keeping 2 x 10% plus a chunk, and 4.4 MB now
    monkeypatch.setattr(trendmax.montecarlo, "_CORES", 2)
    null = Scenario(population=(Stratum(0.1, 250, 250), Stratum(0.4, 100, 100)), penetrances=None)
    peak = traced_peak_mb(lambda: estimate_critical_values(null, DEFAULT_BATTERY, b=200_000, seed=49))
    assert peak <= 32.0
    peak = traced_peak_mb(lambda: pvalue_crosstab([alt_scenario(f2=0.02023)], ("MAX3", "MAXGRID"), seed=50))
    assert peak <= 7.0


def test_peak_memory_of_a_null_run_does_not_grow_with_all_its_values(monkeypatch):
    # 13 decision values x 400,000 tables would be 41.6 MB; the tail keepers
    # hold about 5% of them plus a chunk, and the pool one chunk per task
    # (peak 8.6 MB; 10.7 MB when the keepers held 2 x 5% plus a chunk)
    monkeypatch.setattr(trendmax.montecarlo, "_CORES", 2)
    null = Scenario(population=(Stratum(0.1, 250, 250), Stratum(0.4, 100, 100)), penetrances=None)
    peak = traced_peak_mb(lambda: estimate_critical_values(null, DEFAULT_BATTERY, b=400_000, seed=49))
    assert peak <= 14.0


def test_power_over_twelve_alternatives_keeps_counts_not_values(monkeypatch):
    # the (13, 10,000) decision values of one alternative are 1.04 MB; keeping
    # them peaked 1.0 MB above scoring one chunk on one core, and keeping all
    # twelve alternatives' would add 12.5 MB
    monkeypatch.setattr(trendmax.montecarlo, "_CORES", 1)
    scenarios = load_scenarios(SCENARIOS / "recadd_subfamily.json")
    nulls = {sc.key(): sc.null_scenario() for sc in scenarios}
    criticals = {key: estimate_critical_values(null, DEFAULT_BATTERY, b=2_000, seed=66)
                 for key, null in nulls.items()}
    # the thresholds are set beforehand, so the peak is the counting pass's
    monkeypatch.setattr(trendmax.montecarlo, "estimate_critical_values",
                        lambda null, *args, **kwargs: criticals[null.key()])
    cells = simulate_cells(scenarios[-1], CHUNK_SIZE, seed=67)  # one chunk, laid out as the pool's
    chunk_peak = traced_peak_mb(lambda: evaluate_battery(cells, DEFAULT_BATTERY, True))
    peak = traced_peak_mb(lambda: estimate_power(scenarios, DEFAULT_BATTERY, b=CHUNK_SIZE, seed=67,
                                                 null_seed=66))
    assert len(scenarios) == 12
    assert peak <= chunk_peak + cells.nbytes / 1e6 + 0.5


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_upper_tails_pick_what_the_whole_sample_picks(data):
    b = data.draw(st.integers(1_000, 4 * CHUNK_SIZE), label="b")
    alpha = data.draw(st.integers(1, b - 1), label="alpha * b") / b
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = np.stack([
        rng.integers(0, data.draw(st.integers(1, 20), label="distinct"), b).astype(float),  # ties
        rng.standard_normal(b),
        np.full(b, math.nan),
    ])
    for v in values[:2]:
        v[rng.random(b) < data.draw(st.sampled_from([0.0, 0.001, 0.3, 0.99]), label="nan")] = math.nan
    most = data.draw(st.sampled_from([97, 1_000, CHUNK_SIZE]), label="largest chunk")
    cuts = np.cumsum(rng.integers(1, most + 1, size=b))
    bounds = np.concatenate([[0], cuts[cuts < b], [b]])
    tails = trendmax.montecarlo._UpperTails(3, b, alpha)
    for i in rng.permutation(bounds.size - 1):
        tails(bounds[i], values[:, bounds[i]:bounds[i + 1]])
    for i, v in enumerate(values):
        assert tails.nans[i] == np.isnan(v).sum()
        assert tails.sizes[i] <= tails.buffers.shape[1]
        if i == 2:
            with pytest.raises(InputError, match="no finite values"):
                tails.quantile(i)
        else:
            assert tails.quantile(i) == empirical_upper_quantile(v, alpha)
        # observations tie with the sample's own values
        observed = np.concatenate([rng.choice(v, 200), [math.nan, math.inf, -math.inf]])
        got, want = tails.pvalues(i, observed), whole_sample_pvalues(v, observed)
        below = want < alpha
        assert np.array_equal(got[below], want[below])
        assert np.all(got[~below] >= alpha)


class OverflowCounting(trendmax.montecarlo._UpperTails):
    """Upper tails that record, per chunk, whether statistic 0's buffer overflowed; calls run one at a time."""

    def __init__(self, *args):
        super().__init__(*args)
        self.overflows, self.serial = [], threading.Lock()

    def __call__(self, lo, values):
        with self.serial:
            size, floor, v = self.sizes[0], self.floors[0], values[0]
            kept = np.count_nonzero(~np.isnan(v) if floor is None else v > floor)
            super().__call__(lo, values)
            # a chunk that fits is appended whole, so only an overflow leaves another size
            self.overflows.append(self.sizes[0] != size + kept)


@pytest.mark.parametrize("cores", [1, 4])
def test_upper_tails_that_overflow_on_most_chunks_pick_what_the_whole_sample_picks(cores, monkeypatch):
    # each chunk's values are raised by its offset, so taken in order every chunk lands above the
    # floor whole, and a buffer of m + CHUNK_SIZE overflows on every chunk after the first
    monkeypatch.setattr(trendmax.montecarlo, "_CORES", cores)
    scenario = Scenario(population=(Stratum(0.3, 100, 100),), penetrances=None, correction=False)
    b, alpha, battery = 10 * CHUNK_SIZE + 137, 0.01, ("Z0", "MAX3", "CHI2_2DF")
    whole = np.array(list(evaluate_battery(simulate_cells(scenario, b, seed=70), battery).values()))
    whole += np.arange(b) // CHUNK_SIZE * CHUNK_SIZE
    tails = OverflowCounting(len(battery), b, alpha)
    score = trendmax.montecarlo._battery_scorer(scenario, battery)

    def raised(lo, values):
        tails(lo, [v + lo for v in values])

    trendmax.montecarlo._score_chunks([(scenario, b, 70, score, raised)])
    assert tails.buffers.shape[1] == tails.m + CHUNK_SIZE < b
    if cores == 1:
        assert tails.overflows == [False] + [True] * 10
    rng = np.random.default_rng(71)
    for i, v in enumerate(whole):
        assert tails.nans[i] == np.isnan(v).sum()
        assert tails.quantile(i) == empirical_upper_quantile(v, alpha)
        observed = np.concatenate([rng.choice(v, 300), v[-200:], [math.nan, math.inf, -math.inf]])
        finite = v[~np.isnan(v)]
        want = np.array([1.0 if math.isnan(o) else (1 + np.count_nonzero(finite >= o)) / (finite.size + 1)
                         for o in observed])
        got = tails.pvalues(i, observed)
        below = want < alpha
        assert below.sum() >= 100
        assert np.array_equal(got[below], want[below])
        assert np.all(got[~below] >= alpha)


def test_a_partial_tail_names_the_rank_it_misses():
    # rank 19 of 20 is the second largest
    with pytest.raises(ValueError, match="miss rank 19"):
        empirical_upper_quantile(np.array([6.0]), 0.05, size=20)
    assert empirical_upper_quantile(np.array([6.0, 5.0]), 0.05, size=20) == 5.0
    assert empirical_upper_quantile(np.array([4.0, 6.0, 5.0]), 0.05, size=20) == 5.0


@pytest.mark.parametrize("call", [
    lambda: estimate_critical_values(null_scenario(), BATTERY, b=200_000, alpha=1.5, seed=1),
    lambda: estimate_critical_values(null_scenario(), BATTERY, b=200_000, alpha=math.nan, seed=1),
    lambda: estimate_power([alt_scenario()], BATTERY, b=10_000, alpha=0.0, seed=1, null_seed=1),
    lambda: estimate_power([alt_scenario()], BATTERY, b=0, seed=1, null_seed=1),
    lambda: pvalue_crosstab([alt_scenario()], ("MAX3", "Z0"), b_reps=0, seed=1),
    lambda: pvalue_crosstab([alt_scenario()], ("MAX3", "Z0"), b_null=0, seed=1),
    lambda: mean_correlation_matrix(alt_scenario(), b=-5, seed=1),
    lambda: estimate_power([alt_scenario()], BATTERY, b=10_000, b_null=999, seed=1, null_seed=1),
    lambda: permutation_pvalues(np.ones((2, 6)), BATTERY, -1, seed=1),
    # a count that is not an integer, a bool included
    lambda: estimate_critical_values(null_scenario(), ("Z0",), 1000.5, seed=1),
    lambda: estimate_critical_values(null_scenario(), ("Z0",), True, seed=1),
    lambda: estimate_power([alt_scenario()], BATTERY, 10.5, seed=1, null_seed=1),
    lambda: estimate_power([alt_scenario()], BATTERY, 100, b_null=200_000.5, seed=1, null_seed=1),
    lambda: pvalue_crosstab([alt_scenario()], ("MAX3", "Z0"), b_reps=10.5, seed=1),
    lambda: mean_correlation_matrix(alt_scenario(), 10.5, seed=1),
    lambda: permutation_pvalues(np.ones((2, 6)), BATTERY, 2.5, seed=1),
    lambda: permutation_pvalues(np.ones((2, 6)), BATTERY, True, seed=1),
    # a seed that is None (fresh OS entropy), negative, a bool or a float
    lambda: estimate_critical_values(null_scenario(), ("MERT",), 1000, seed=None),
    lambda: estimate_critical_values(null_scenario(), ("MERT",), 1000, seed=-1),
    lambda: estimate_power([alt_scenario()], BATTERY, 100, b_null=1000, seed=None, null_seed=1),
    lambda: estimate_power([alt_scenario()], BATTERY, 100, b_null=1000, seed=1, null_seed=-1),
    lambda: pvalue_crosstab([alt_scenario()], ("MAX3", "Z0"), 1000, 100, seed=None),
    lambda: pvalue_crosstab([alt_scenario()], ("MAX3", "Z0"), 1000, 100, seed=1.5),
    lambda: mean_correlation_matrix(alt_scenario(), 100, seed=True),
    lambda: simulate_cells(alt_scenario(), 100, seed=-1),
    lambda: permutation_pvalues([[30, 40, 30, 35, 40, 25]], ("MAX3",), 200, seed=None),
    lambda: permutation_pvalues([[30, 40, 30, 35, 40, 25]], ("MAX3",), 200, seed=1.5),
])
def test_invalid_alpha_or_replicate_count_is_rejected_before_any_draw(call, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before validating its arguments")

    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", no_draw)
    monkeypatch.setattr(trendmax.montecarlo.np.random, "default_rng", no_draw)
    monkeypatch.setattr(trendmax.montecarlo.np.random, "SeedSequence", no_draw)
    monkeypatch.setattr(trendmax.montecarlo, "_distinct_case_rows", no_draw)
    with pytest.raises(InputError, match="alpha|replicate count must be (positive|an integer)|need at least 1000 null"
                                         "|seed must be a nonnegative integer"):
        call()


def test_a_count_or_seed_message_names_its_parameter_and_value():
    with pytest.raises(InputError, match=r"^replicate count must be an integer, got b=True$"):
        estimate_critical_values(null_scenario(), ("Z0",), True, seed=1)
    with pytest.raises(InputError, match=r"^replicate count must be an integer, got b_reps=10\.5$"):
        pvalue_crosstab([alt_scenario()], ("MAX3",), b_reps=10.5, seed=1)
    with pytest.raises(InputError, match=r"^replicate count must be positive, got b_null=0$"):
        estimate_power([alt_scenario()], ("MAX3",), 100, b_null=0, seed=1, null_seed=1)
    with pytest.raises(InputError, match=r"^null_seed must be a nonnegative integer, got None$"):
        estimate_power([alt_scenario()], ("MAX3",), 100, seed=1, null_seed=None)
    # numpy's own integers are integers
    got = estimate_critical_values(null_scenario(), ("Z0",), np.int64(1000), seed=np.uint32(3)).thresholds
    assert got == estimate_critical_values(null_scenario(), ("Z0",), 1000, seed=3).thresholds


def test_power_reports_a_bad_battery_before_a_bad_alpha():
    # alpha is checked once, by the first null's critical values, after the battery
    with pytest.raises(InputError, match="NOPE"):
        estimate_power([alt_scenario()], ("NOPE",), 100, alpha=0.0, seed=1, null_seed=1)


@pytest.mark.parametrize("alpha, b, need", [(5e-8, 20_000, 200_000_000), (1e-3, 9_999, 10_000),
                                            (0.05, 999, 1_000), (3e-3, 3_333, 3_334),
                                            # 10 / alpha overflows to inf: no B is enough
                                            (5e-324, 10**15, math.inf), (5e-309, 1_000, math.inf),
                                            # 10 / alpha is a finite float past 2**53: six digits, not 309
                                            (1e-307, 1_000, "1e+308")])
def test_a_threshold_needs_ten_null_values_above_its_rank(alpha, b, need, monkeypatch):
    # below max(1000, ceil(10 / alpha)) replicates the threshold is (nearly) the sample maximum
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the replicate rule")

    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", no_draw)
    message = f"alpha={alpha:g} needs at least {need} null replicates, max(1000, ceil(10/alpha)); got {b}"
    with pytest.raises(InputError) as raised:
        estimate_critical_values(null_scenario(), ("Z_HALF", "MAX3"), b, alpha, seed=1)
    assert str(raised.value) == message
    # power reaches the rule through its nulls
    with pytest.raises(InputError) as raised:
        estimate_power([alt_scenario()], ("Z_HALF", "MAX3"), b=100, b_null=b, alpha=alpha, seed=1, null_seed=1)
    assert str(raised.value) == message


def test_a_threshold_with_ten_null_values_above_its_rank_is_estimated():
    # alpha B = 10: the rule's smallest B at alpha = 1e-3, and rank 9,990 of 10,000
    null = null_scenario()
    got = estimate_critical_values(null, ("Z_HALF",), 10_000, 1e-3, seed=1).thresholds["Z_HALF"]
    values = evaluate_battery(simulate_cells(null, 10_000, seed=1), ("Z_HALF",), null.two_sided)["Z_HALF"]
    assert got == np.sort(values)[9_989] < values.max()


def test_mixture_split_must_match_totals():
    mixture = {"pA": 0.1, "pB": 0.4, "R1": 250, "R2": 100, "S1": 250, "S2": 100}
    with pytest.raises(ScenarioError):
        parse_scenarios(json.dumps({**mixture, "r": 300, "s": 350}))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_estimate_power_bitwise_reproducible():
    sc = alt_scenario()
    rows = [row for _ in range(2)
            for row in estimate_power([sc], BATTERY, b=5_000, b_null=20_000, seed=8, null_seed=7)]
    assert rows[0].rates == rows[1].rates


# ---------------------------------------------------------------------------
# critical values and power
# ---------------------------------------------------------------------------

def test_empirical_quantile_normal_oracle():
    rng = np.random.default_rng(9)
    draws = np.abs(rng.standard_normal(200_000))
    assert empirical_upper_quantile(draws, 0.05) == pytest.approx(1.959964, abs=0.02)
    one_sided = rng.standard_normal(200_000)
    assert empirical_upper_quantile(one_sided, 0.05) == pytest.approx(1.644854, abs=0.02)


def test_empirical_quantile_median_and_monotonicity():
    rng = np.random.default_rng(10)
    draws = rng.standard_normal(50_001)
    assert empirical_upper_quantile(draws, 0.5) == pytest.approx(np.median(draws), abs=1e-6)
    alphas = (0.01, 0.05, 0.1, 0.25, 0.5)
    thresholds = [empirical_upper_quantile(draws, a) for a in alphas]
    assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))


def sorted_reference_quantile(values, alpha: float) -> float:
    values = np.sort(values[~np.isnan(values)])
    k = min(max(math.ceil((1.0 - alpha) * values.size), 1), values.size)
    return float(values[k - 1])


@given(
    st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.5, math.nan]),
                       st.floats(-10, 10, allow_nan=False)), min_size=1, max_size=60),
    st.sampled_from([1e-12, 0.01, 0.05, 0.5, 0.95, 0.999, 1.0 - 1e-12]),
)
@settings(max_examples=200, deadline=None)
def test_empirical_quantile_equals_sorted_reference(values, alpha):
    values = np.array(values)
    if np.isnan(values).all():
        with pytest.raises(InputError):
            empirical_upper_quantile(values, alpha)
        return
    assert empirical_upper_quantile(values, alpha) == sorted_reference_quantile(values, alpha)


def test_empirical_quantile_single_value_and_ties():
    for alpha in (1e-12, 0.05, 1.0 - 1e-12):
        assert empirical_upper_quantile(np.array([3.0]), alpha) == 3.0
        assert empirical_upper_quantile(np.array([math.nan, 3.0]), alpha) == 3.0
    ties = np.array([1.0, 2.0, 2.0, 2.0, 5.0, math.nan])
    assert [empirical_upper_quantile(ties, a) for a in (0.9, 0.5, 0.1)] == [1.0, 2.0, 5.0]


def test_empirical_quantile_convergence_rate():
    # O(1 / sqrt(B)) error against the exact normal quantile
    target = float(spstats.norm.ppf(0.95))
    rng = np.random.default_rng(11)
    c = 4 * math.sqrt(0.05 * 0.95) / spstats.norm.pdf(target)
    for b in (10**3, 10**4, 10**5):
        errors = [
            abs(empirical_upper_quantile(rng.standard_normal(b), 0.05) - target)
            for _ in range(5)
        ]
        assert np.median(errors) <= c / math.sqrt(b)


def test_criticals_require_null_scenario():
    with pytest.raises(ScenarioError):
        estimate_critical_values(alt_scenario(), BATTERY, b=2_000, seed=12)


def test_size_matches_level_when_null_is_alternative():
    sc = null_scenario(p=0.5)
    [row] = estimate_power([sc], BATTERY, b=10_000, b_null=100_000, seed=14, null_seed=13)
    se = math.sqrt(0.05 * 0.95 / 10_000)
    for name in BATTERY:
        assert abs(row.rates[name] - 0.05) <= 3 * se + 0.003


def test_power_nondecreasing_in_effect_size():
    # three alternatives on one null, scored against its thresholds
    rows = estimate_power([alt_scenario(f2=f2) for f2 in (0.013, 0.016, 0.020)], ("Z_HALF",),
                          b=6_000, b_null=50_000, seed=18, null_seed=17)
    powers = [row.rates["Z_HALF"] for row in rows]
    assert powers[0] < powers[1] < powers[2]


def test_power_reports_se():
    sc = alt_scenario()
    [row] = estimate_power([sc], ("MAX3",), b=2_500, b_null=5_000, seed=20, null_seed=19)
    rate = row.rates["MAX3"]
    assert row.standard_errors["MAX3"] == pytest.approx(math.sqrt(rate * (1 - rate) / 2_500))


# ---------------------------------------------------------------------------
# mean correlations
# ---------------------------------------------------------------------------

def test_mean_correlations_null_reference_values():
    for p, expected in ((0.5, (0.82, 0.33, 0.82)), (0.1, (0.97, 0.22, 0.45))):
        mc = mean_correlation_matrix(null_scenario(p=p), b=10_000, seed=21)
        assert np.allclose(mc.triple, expected, atol=0.02)
        assert mc.failure_rate == 0.0


def test_mean_correlations_failure_rate_without_correction():
    # tiny uncorrected samples at a rare allele frequently miss MM entirely
    sc = Scenario(population=(Stratum(0.05, 10, 10),), penetrances=None, correction=False)
    mc = mean_correlation_matrix(sc, b=2_000, seed=22)
    assert mc.failure_rate > 0.5


# ---------------------------------------------------------------------------
# p-value cross-tabulation
# ---------------------------------------------------------------------------

def test_crosstab_identical_statistics_diagonal():
    [counts] = pvalue_crosstab([alt_scenario()], ("MAX3",), b_null=5_000, b_reps=500, seed=23)
    assert counts.sum() == 500
    assert np.all(counts == np.diag(np.diag(counts)))


def test_crosstab_grand_total_and_uniform_null():
    [counts] = pvalue_crosstab([null_scenario(p=0.5)], ("Z_HALF", "CHI2_2DF"),
                               b_null=100_000, b_reps=5_000, seed=24)
    assert counts.sum() == 5_000
    for margin in (counts.sum(axis=1), counts.sum(axis=0)):
        frac_below_01 = margin[0] / 5_000
        assert abs(frac_below_01 - 0.01) <= 3 * math.sqrt(0.01 * 0.99 / 5_000) + 0.001


def test_crosstab_margin_matches_power():
    sc = alt_scenario(f2=0.02)
    [counts] = pvalue_crosstab([sc], ("MAX3", "CHI2_2DF"), b_null=50_000, b_reps=4_000, seed=25)
    [row] = estimate_power([sc], ("MAX3",), b=4_000, b_null=50_000, seed=27, null_seed=26)
    frac_below_05 = counts[:2, :].sum() / 4_000
    assert abs(frac_below_05 - row.rates["MAX3"]) <= 0.025


def test_crosstab_directional_claim_for_max3_vs_chi2():
    # under a trend alternative the 1-parameter maximum earns smaller p-values
    sc = alt_scenario(f2=0.02023, kind="add", p=0.3)
    [counts] = pvalue_crosstab([sc], ("MAX3", "CHI2_2DF"), b_null=50_000, b_reps=4_000, seed=28)
    upper_right = np.triu(counts, k=1).sum()
    lower_left = np.tril(counts, k=-1).sum()
    assert upper_right > lower_left


def test_crosstab_undefined_replicates_are_not_significant():
    # HWD is undefined on ~43% of these uncorrected null replicates and
    # Z_HALF on ~20%; they must land in the p = 1 bin, not in [0, 0.01).
    sc = Scenario(population=(Stratum(0.02, 20, 20),), penetrances=None, correction=False)
    [counts] = pvalue_crosstab([sc], ("HWD", "Z_HALF"), b_null=2_000, b_reps=2_000, seed=1)
    assert counts.shape == (4, 4)
    assert counts.sum() == 2_000
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    assert rows[0] <= 40 and cols[0] <= 40  # about 1% under the null, was 911 and 403
    assert rows[-1] >= 700 and cols[-1] >= 300  # the undefined replicates


def test_crosstab_simulates_each_distinct_null_once(monkeypatch):
    # 12 scenarios on 3 distinct nulls; each scenario's table is the one it gets alone
    scenarios = load_scenarios(SCENARIOS / "recadd_subfamily.json")
    alone = [pvalue_crosstab([sc], ("MAX3", "Z1"), b_null=2_000, b_reps=200, seed=3)[0] for sc in scenarios]
    built = []
    upper_tails = trendmax.montecarlo._UpperTails

    def counting(*args):
        built.append(args)
        return upper_tails(*args)

    monkeypatch.setattr(trendmax.montecarlo, "_UpperTails", counting)
    tables = pvalue_crosstab(scenarios, ("MAX3", "Z1"), b_null=2_000, b_reps=200, seed=3)
    assert len(scenarios) == 12 and len(built) == 3
    assert len(tables) == 12
    for got, want in zip(tables, alone, strict=True):
        assert np.array_equal(got, want)


def test_crosstab_bins_are_closed_on_the_left_and_the_last_holds_p_one(monkeypatch):
    # a null of 1, ..., 1999 gives p = (1 + #null >= obs) / 2000, so 1901 has p = 100/2000 = 0.05 exactly
    # and 1001 p = 0.5; 0 has p = 1, as an undefined replicate does
    reps = np.array([[1902.0, 1901.0, 1002.0, 1001.0, 0.0, math.nan]] * 2)
    reps[1] = reps[1, ::-1]
    monkeypatch.setattr(trendmax.montecarlo, "_score_chunks",
                        lambda runs: [consume(0, [np.arange(1.0, 2000.0)] * 2) for *_, consume in runs])
    monkeypatch.setattr(trendmax.montecarlo, "_score_array", lambda *args: reps)
    [counts] = pvalue_crosstab([null_scenario()], ("Z0", "Z1"), b_null=1_999, b_reps=6, bins=(0.05, 0.5),
                               seed=1)
    want = np.zeros((3, 3), dtype=int)
    np.add.at(want, ([0, 1, 1, 2, 2, 2], [2, 2, 2, 1, 1, 0]), 1)
    assert np.array_equal(counts, want)


def test_crosstab_rejects_bad_bins(monkeypatch):
    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", None)  # rejected before any draw
    for bins in ((0.5, 0.1), ()):
        with pytest.raises(InputError, match="must be one or more strictly increasing values"):
            pvalue_crosstab([null_scenario()], ("Z0", "Z1"), b_null=2_000, b_reps=100,
                            bins=bins, seed=29)


CROSSTAB_CASES = {
    "two-sided": (alt_scenario(), "MAX3", "CHI2_2DF"),
    # HWD is undefined on many of these uncorrected tables, Z_HALF on some
    "uncorrected 20+20": (Scenario(population=(Stratum(0.02, 20, 20),), penetrances=None, correction=False),
                          "HWD", "Z_HALF"),
    "one statistic": (alt_scenario(), "MAX3", "MAX3"),
    "one-sided": (replace(alt_scenario(kind="rec", f2=0.05), two_sided=False), "Z_HALF", "MAX2"),
}


@pytest.mark.parametrize("case", CROSSTAB_CASES)
@pytest.mark.parametrize("bins", [(0.01, 0.05, 0.10), (0.5, 0.9, 0.99), (0.2,)])
@pytest.mark.parametrize("b_null", [1, 7, 999, 23_456])
def test_crosstab_counts_equal_the_whole_sample_reference(case, bins, b_null):
    sc, stat_a, stat_b = CROSSTAB_CASES[case]
    b_reps = 1_500
    battery = tuple(dict.fromkeys((stat_a, stat_b)))
    null_seed, rep_seed = (int(x) for x in np.random.SeedSequence(30).generate_state(2))
    null_values = evaluate_battery(row_major_reference(sc.null_scenario(), b_null, null_seed),
                                   battery, sc.two_sided)
    rep_values = evaluate_battery(row_major_reference(sc, b_reps, rep_seed), battery, sc.two_sided)
    [counts] = pvalue_crosstab([sc], battery, b_null=b_null, b_reps=b_reps, bins=bins, seed=30)
    assert counts.shape == (len(bins) + 1, len(bins) + 1)
    assert np.array_equal(counts, whole_sample_counts(null_values, rep_values, stat_a, stat_b, bins))


# ---------------------------------------------------------------------------
# permutation p-values
# ---------------------------------------------------------------------------

def column_margins(table) -> list:
    """The genotype totals n0, n1, n2 of six cells r0 r1 r2 s0 s1 s2."""
    return [table[i] + table[i + 3] for i in range(3)]


def subset_permutation_oracle(table, statistic: str) -> Fraction:
    """Exhaustive label permutation over C(n, r) case subsets."""
    genotypes = []
    for g, count in enumerate(column_margins(table)):
        genotypes.extend([g] * int(count))
    n = len(genotypes)
    r = int(sum(table[:3]))
    observed = evaluate_single(table, statistic)
    total = 0
    exceed = 0
    for case_idx in itertools.combinations(range(n), r):
        row = [0, 0, 0]
        for i in case_idx:
            row[genotypes[i]] += 1
        ctrl = [int(m) - c for m, c in zip(column_margins(table), row)]
        value = evaluate_single(np.array(row + ctrl, dtype=float), statistic)
        total += 1
        if not math.isnan(value) and value >= observed:
            exceed += 1
    return Fraction(exceed, total)


def permuted_cells(case_rows, margins, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (6, B) from permuted case rows and the fixed column margins; (B, 6) view.

    The oracle's own packing, independent of the one in :func:`permutation_pvalues`.
    """
    out[0:3] = np.transpose(case_rows)
    np.subtract(np.asarray(margins, dtype=float)[:, None], out[0:3], out=out[3:6])
    return out.T


def exact_permutation_pvalue(table, statistic: str, two_sided=True) -> Fraction:
    """Exact permutation p-value P(statistic >= observed), by enumerating the hypergeometric support.

    The permutation oracle for small tables: undefined permuted values
    count as non-exceedances, as in the Monte Carlo mode.
    """
    margins, n_cases = [int(m) for m in column_margins(table)], int(sum(table[:3]))
    observed = evaluate_single(table, statistic, two_sided)
    if math.isnan(observed):
        raise DegenerateTable(UNDEFINED_OBSERVED.format(statistic))
    n0, n1, n2 = margins
    support = [(a0, a1, n_cases - a0 - a1) for a0 in range(min(n0, n_cases) + 1)
               for a1 in range(min(n1, n_cases - a0) + 1) if n_cases - a0 - a1 <= n2]
    cells = permuted_cells(support, margins, np.empty((6, len(support))))
    values = evaluate_battery(cells, validate_battery((statistic,)), two_sided)[statistic]
    numer = sum(math.comb(n0, a0) * math.comb(n1, a1) * math.comb(n2, a2)
                for (a0, a1, a2), v in zip(support, values) if not math.isnan(v) and v >= observed)
    return Fraction(numer, math.comb(n0 + n1 + n2, n_cases))


@pytest.mark.parametrize("statistic", ["Z_HALF", "CHI2_2DF", "T_MAX", "MAX3"])
def test_exact_permutation_matches_subset_enumeration(statistic):
    tables = [
        (1, 2, 3, 3, 2, 1),
        (2, 1, 2, 1, 3, 2),
        (0, 3, 2, 3, 1, 2),
    ]
    for t in tables:
        assert exact_permutation_pvalue(t, statistic) == subset_permutation_oracle(t, statistic)


def test_permutation_identical_rows_pvalue_near_one():
    t = (5, 10, 5, 5, 10, 5)
    p = permutation_pvalue(t, ("CHI2_2DF",), 2_000, seed=30)["CHI2_2DF"]
    assert p > 0.9


@pytest.mark.parametrize("call", [
    lambda table: permutation_pvalue(table, ("MAX3",), 0, seed=31),
    lambda table: permutation_pvalues(np.array([table] * 37), DEFAULT_BATTERY, 0, seed=41),
], ids=["one_table", "batch"])
def test_permutation_zero_b_is_rejected_before_any_draw(call, worked_table, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking B")

    monkeypatch.setattr(trendmax.montecarlo, "_distinct_case_rows", no_draw)
    with pytest.raises(InputError, match=r"^replicate count must be positive, got b=0$"):
        call(worked_table)


def test_permutation_extreme_table_small_pvalue(worked_table):
    p = permutation_pvalue(worked_table, ("T_MAX",), 10_000, seed=32)["T_MAX"]
    assert p < 0.01


def test_permutation_monte_carlo_agrees_with_exact():
    t = (1, 2, 3, 3, 2, 1)
    exact = float(exact_permutation_pvalue(t, "CHI2_2DF"))
    b = 20_000
    approx = permutation_pvalue(t, ("CHI2_2DF",), b, seed=33)["CHI2_2DF"]
    assert abs(approx - exact) <= 4 * math.sqrt(exact * (1 - exact) / b) + 1e-4


def test_permutation_requires_integer_table():
    t = (1.5, 2.5, 3.5, 3.5, 2.5, 1.5)
    with pytest.raises(DegenerateTable):
        permutation_pvalue(t, ("CHI2_2DF",), 100, seed=34)


def golden_tables() -> list[tuple[float, ...]]:
    lines = (GOLDEN / "tables.txt").read_text(encoding="utf-8").splitlines()
    return [parse_table_record(line) for line in lines if not line.startswith("#")]


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=10, deadline=None)
def test_permutation_statistic_alone_equals_statistic_in_battery(seed, two_sided):
    battery = validate_battery((*ALL_STATISTICS, "MAX[0:0.2:0.35:0.5:0.9:1]"))
    for t in golden_tables():
        full = permutation_pvalue(t, battery, 300, seed=seed, two_sided=two_sided)
        for name in battery:
            alone = permutation_pvalue(t, (name,), 300, seed=seed, two_sided=two_sided)
            # bit for bit, NaN (undefined on the observed table) included
            assert np.float64(alone[name]).tobytes() == np.float64(full[name]).tobytes(), (t, name)


def test_permutation_undefined_observed_statistic_is_nan():
    t = (10, 0, 0, 5, 0, 0)  # monomorphic: every statistic undefined
    p = permutation_pvalue(t, ALL_STATISTICS, 100, seed=39)
    assert list(p) == list(ALL_STATISTICS)
    assert all(math.isnan(v) for v in p.values())
    with pytest.raises(DegenerateTable, match="statistic Z0 is undefined on the observed table"):
        exact_permutation_pvalue(t, "Z0")


def test_permutation_battery_agrees_with_exact():
    t = (2, 3, 4, 5, 3, 1)
    b = 20_000
    approx = permutation_pvalue(t, ALL_STATISTICS, b, seed=40)
    for name in ALL_STATISTICS:
        exact = float(exact_permutation_pvalue(t, name))
        assert abs(approx[name] - exact) <= 4 * math.sqrt(exact * (1 - exact) / b) + 1e-4, name


def one_table_permutation_pvalues(table, battery, b, seed, two_sided=True):
    """Reference: one table's own permutations, drawn and scored on their own, row-major.

    The margins and case count are those of the table rounded to whole counts.
    """
    observed = evaluate_battery([table], battery, two_sided)
    margins = np.rint(column_margins(table)).astype(int)
    rows = np.random.default_rng(seed).multivariate_hypergeometric(margins, round(sum(table[:3])), size=b,
                                                                  method="marginals")
    values = evaluate_battery(np.hstack([rows, margins - rows]).astype(float), battery, two_sided)
    return {name: math.nan if math.isnan(observed[name][0])
            else (1 + int(np.sum(values[name] >= observed[name][0]))) / (1 + b) for name in battery}


def batch_of_tables(count: int, seed: int) -> list[tuple[float, ...]]:
    rng = np.random.default_rng(seed)
    return [tuple(float(c) for c in rng.integers(0, 60, size=6)) for _ in range(count)]


@pytest.mark.parametrize("b, two_sided, battery", [
    (1_237, True, (*ALL_STATISTICS, "MAX[0:0.3:0.5:0.8:1]")),  # several tables' distinct rows per call
    (1_237, False, (*ALL_STATISTICS, "MAX[0:0.3:0.5:0.8:1]")),
    (6_001, True, DEFAULT_BATTERY),  # B above CHUNK_SIZE / 2: a task, and a call, per table
])
def test_batched_permutation_pvalues_equal_one_table_permutations(b, two_sided, battery):
    battery = validate_battery(battery)
    tables = batch_of_tables(37 if b < 6_000 else 5, seed=b)
    tables[1] = (10, 0, 0, 5, 0, 0)  # every statistic undefined on the observed table
    got = permutation_pvalues(np.array(tables), battery, b, seed=41, two_sided=two_sided)
    assert list(got) == list(battery)
    wants = [one_table_permutation_pvalues(table, battery, b, 41, two_sided) for table in tables]
    for name, pvalues in got.items():
        assert pvalues.shape == (len(tables),)
        assert_bit_identical(pvalues, np.array([want[name] for want in wants]))
    assert all(math.isnan(p[1]) for p in got.values())
    observed = evaluate_battery(np.array(tables), battery, two_sided)
    again = permutation_pvalues(np.array(tables), battery, b, seed=41, two_sided=two_sided,
                                observed=observed)
    assert list(again) == list(got)
    for name in got:
        assert_bit_identical(again[name], got[name])


@pytest.mark.parametrize("i, table, message", [
    (0, (0, 0, 0, 3, 4, 5), "both groups must be nonempty for permutation"),  # no cases
    (2, (3.5, 1, 2, 3, 4, 5), "permutation requires an integer-valued table"),
    (1, (-1, 3, 2, 3, 4, 5), "permutation requires nonnegative counts"),  # its margins are not
    (0, (-5, 3, 4, 1, 4, 5), "permutation requires nonnegative counts"),  # a negative margin
    (2, (1, 2, math.inf, 3, 4, 5), "permutation requires an integer-valued table"),
    (1, (1, 2, 3, math.nan, 4, 5), "permutation requires an integer-valued table"),
    (0, (999_999_990, 1, 1, 1, 1, 10), "permutation requires a total count below 1,000,000,000"),
    (2, (1e308, 1e308, 0, 1, 1, 1), "permutation requires a total count below 1,000,000,000"),
    (1, (-2.5, 0, 0, 0, 0, 0), "permutation requires an integer-valued table"),  # first rule wins
])
def test_an_unpermutable_table_raises_with_its_index_before_any_draw(i, table, message, monkeypatch):
    monkeypatch.setattr(trendmax.montecarlo, "_distinct_case_rows", None)  # nothing may be drawn first
    tables = batch_of_tables(4, seed=44)
    tables[i] = table
    tables[3] = (1, 2, 3, 0, 0, 0)  # no controls; only the first bad table is named
    with pytest.raises(DegenerateTable) as raised:
        permutation_pvalues(np.array(tables), DEFAULT_BATTERY, 100, seed=45)
    assert str(raised.value) == f"{message} (table {i})"


def first_broken_permutation_rule(cells) -> str | None:
    """Reference, one table in plain Python: the first permutation rule that ``cells`` breaks, or None."""
    if not all(math.isfinite(c) and abs(c - round(c)) <= 1e-9 for c in cells):
        return "permutation requires an integer-valued table"
    counts = [round(c) for c in cells]
    if min(counts) < 0:
        return "permutation requires nonnegative counts"
    if sum(counts) >= 10**9:
        return "permutation requires a total count below 1,000,000,000"
    if not 0 < sum(counts[:3]) < sum(counts):
        return "both groups must be nonempty for permutation"
    return None


# a cell made odd: off an integer by a half, inside (1e-10) or outside (1e-8) the
# tolerance, negative, not finite, or large enough to pass the total's limit
ODD_CELLS = {
    "half": lambda c: c + 0.5, "+1e-10": lambda c: c + 1e-10, "-1e-10": lambda c: c - 1e-10,
    "+1e-8": lambda c: c + 1e-8, "-1e-8": lambda c: c - 1e-8, "negative": lambda c: -c - 1.0,
    "inf": lambda c: math.inf, "nan": lambda c: math.nan, "huge": lambda c: c + 1e9,
}


@st.composite
def permutation_inputs(draw) -> list[float]:
    """Six small whole counts, zeros often, with up to three odd cells, and at times a zero case or control row."""
    cells = [float(c) for c in draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 5, 8, 12]), min_size=6, max_size=6))]
    for j, odd in draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(sorted(ODD_CELLS))), max_size=3)):
        cells[j] = ODD_CELLS[odd](cells[j])
    row = draw(st.sampled_from([None, None, None, 0, 3]))
    if row is not None:
        cells[row:row + 3] = [0.0, 0.0, 0.0]
    return cells


@given(st.lists(permutation_inputs(), min_size=1, max_size=3), st.booleans())
@example([[3.0, 0.0, 2.0, 1.0, 4.0, 5.0 - 1e-10], [-1e-10, 2.0, 2.0, 1.0, 1.0, 1.0]], True)  # both rounded
@example([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [-3.0, 2.5, 0.0, 0.0, 0.0, 0.0]], False)  # first rule wins
@example([[1.0, 2.0, 3.0 + 1e-8, 4.0, 5.0, 6.0]], True)
@example([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1e9 + 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]], True)
@settings(max_examples=80, deadline=None)
def test_permutation_rules_and_pvalues_match_a_per_table_reference(tables, two_sided):
    broken = [(i, rule) for i, rule in enumerate(map(first_broken_permutation_rule, tables)) if rule]
    if broken:
        with pytest.raises(DegenerateTable) as raised:
            permutation_pvalues(np.array(tables), DEFAULT_BATTERY, 50, seed=46, two_sided=two_sided)
        assert str(raised.value) == "{1} (table {0})".format(*broken[0])
        return
    got = permutation_pvalues(np.array(tables), DEFAULT_BATTERY, 50, seed=46, two_sided=two_sided)
    for i, cells in enumerate(tables):
        want = one_table_permutation_pvalues(cells, DEFAULT_BATTERY, 50, 46, two_sided)
        assert_bit_identical(np.array([got[name][i] for name in DEFAULT_BATTERY]),
                             np.array([want[name] for name in DEFAULT_BATTERY]))


@pytest.mark.parametrize("shape", [(6,), (4, 3), (1, 12), (2, 6, 1), (0,)])
def test_a_batch_of_tables_is_an_n_by_6_array_and_nothing_else(shape):
    cells = np.ones(shape)  # (4, 3) and (1, 12) hold two tables' worth of cells, but are no batch
    for call in (lambda: evaluate_battery(cells, DEFAULT_BATTERY),
                 lambda: permutation_pvalues(cells, DEFAULT_BATTERY, 10, seed=1)):
        with pytest.raises(InputError, match=re.escape(f"expected an (N, 6) array of tables, got shape {shape}")):
            call()


def test_an_empty_batch_of_tables_gives_empty_arrays():
    empty = np.empty((0, 6))
    for result in (evaluate_battery(empty, DEFAULT_BATTERY),
                   permutation_pvalues(empty, DEFAULT_BATTERY, 10, seed=1)):
        assert list(result) == list(DEFAULT_BATTERY)
        assert all(values.shape == (0,) for values in result.values())


def count_permuted_rows(monkeypatch) -> list[int]:
    """Rows of each battery call that :func:`permutation_pvalues` makes, from now on.

    The first scores the observed tables; the rest are the permuted calls.
    """
    calls = []
    original = trendmax.montecarlo.evaluate_battery

    def counting(cells, *args, **kwargs):
        calls.append(len(cells))
        return original(cells, *args, **kwargs)

    monkeypatch.setattr(trendmax.montecarlo, "evaluate_battery", counting)
    return calls


def distinct_permuted_rows(table, b, seed) -> int:
    """Distinct case rows among a table's b draws from ``default_rng(seed)``, by np.unique."""
    margins = np.array(column_margins(table)).astype(int)
    rows = np.random.default_rng(seed).multivariate_hypergeometric(margins, int(sum(table[:3])), size=b,
                                                                  method="marginals")
    return len(np.unique(rows, axis=0))


@given(margins=st.lists(st.integers(0, 40), min_size=3, max_size=3).filter(lambda m: sum(m) >= 2),
       cases=st.floats(0.0, 1.0), b=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
@example(margins=[9, 14, 0], cases=0.4, b=300, seed=3)  # n2 = 0: keys r1 (n2 + 1) + r2 of width 1
@example(margins=[12, 0, 0], cases=0.5, b=50, seed=4)  # a single distinct row
@example(margins=[0, 0, 9], cases=0.5, b=50, seed=4)
@example(margins=[7, 5, 3], cases=0.5, b=1, seed=5)
@settings(max_examples=150, deadline=None)
def test_distinct_case_rows_are_the_unique_rows_of_the_same_draws(margins, cases, b, seed):
    n_cases = min(max(round(cases * sum(margins)), 1), sum(margins) - 1)
    rows, weights = trendmax.montecarlo._distinct_case_rows(margins, n_cases, b, np.random.default_rng(seed))
    draws = np.random.default_rng(seed).multivariate_hypergeometric(margins, n_cases, size=b,
                                                                   method="marginals")
    unique, counts = np.unique(draws, axis=0, return_counts=True)
    assert rows.dtype == weights.dtype == np.int64
    assert rows.shape == (len(weights), 3)
    assert dict(zip(map(tuple, rows.tolist()), weights.tolist())) == dict(
        zip(map(tuple, unique.tolist()), counts.tolist()))
    # one row per key, in increasing key order
    keys = rows[:, 1] * (margins[2] + 1) + rows[:, 2]
    assert (np.diff(keys) > 0).all()


def test_a_table_whose_permutations_all_coincide_is_scored_as_one_row(monkeypatch):
    # margins (12, 0, 0): every permutation gives the observed table back
    alike = (5, 0, 0, 7, 0, 0)
    rows, weights = trendmax.montecarlo._distinct_case_rows([12, 0, 0], 5, 1_000, np.random.default_rng(41))
    assert rows.tolist() == [[5, 0, 0]] and weights.tolist() == [1_000]
    tables = [batch_of_tables(1, seed=48)[0], alike, (0, 4, 0, 0, 9, 0)]
    calls = count_permuted_rows(monkeypatch)
    got = permutation_pvalues(np.array(tables), ALL_STATISTICS, 1_000, seed=41)
    assert calls.pop(0) == len(tables)
    assert calls == [distinct_permuted_rows(tables[0], 1_000, 41) + 2]
    for i, table in enumerate(tables):
        want = one_table_permutation_pvalues(table, ALL_STATISTICS, 1_000, 41)
        assert_bit_identical(np.array([got[name][i] for name in ALL_STATISTICS]),
                             np.array([want[name] for name in ALL_STATISTICS]))


def packed_tasks(distinct: list[int], b: int) -> list[int]:
    """Rows of each permuted battery call, in task order, for tables with these distinct row counts.

    A task is a run of consecutive tables whose b draws total at most
    CHUNK_SIZE (a table with more is a task alone), and its tables'
    distinct rows are scored in one call.
    """
    per_task = max(1, CHUNK_SIZE // b)
    return [sum(distinct[start:start + per_task]) for start in range(0, len(distinct), per_task)]


def test_a_table_with_more_distinct_rows_than_the_cap_is_scored_alone(monkeypatch):
    big = (2000, 2000, 2000, 2000, 2000, 2000)
    b = 40_000
    assert distinct_permuted_rows(big, b, 41) == 10_781 > CHUNK_SIZE
    small = batch_of_tables(2, seed=49)
    tables = [small[0], big, small[1]]
    alone = [distinct_permuted_rows(table, b, 41) for table in tables]
    for cores in (1, 4):
        monkeypatch.setattr(trendmax.montecarlo, "_CORES", cores)
        calls, passes = count_permuted_rows(monkeypatch), count_kernel_passes(monkeypatch)
        got = permutation_pvalues(np.array(tables), DEFAULT_BATTERY, b, seed=41)
        assert calls.pop(0) == len(tables)
        # b > CHUNK_SIZE, so each table is a task; they run in order on any core count
        assert calls == alone
        assert max(calls) <= b
        # the observed tables, then each task's call; the big table's splits at CHUNK_SIZE rows
        assert max(passes) <= CHUNK_SIZE
        assert sorted(passes) == sorted([len(tables), alone[0], CHUNK_SIZE, alone[1] - CHUNK_SIZE, alone[2]])
        for i, table in enumerate(tables):
            want = one_table_permutation_pvalues(table, DEFAULT_BATTERY, b, 41)
            assert_bit_identical(np.array([got[name][i] for name in DEFAULT_BATTERY]),
                                 np.array([want[name] for name in DEFAULT_BATTERY]))


def test_each_distinct_permuted_table_is_scored_once(monkeypatch):
    b = 1_237
    # eight tables per task; the last task holds five large tables, 5,695 distinct rows in one call
    tables = batch_of_tables(37, seed=47) + [(2000, 2000, 2000, 2000, 2000, 2000)] * 8
    distinct = [distinct_permuted_rows(table, b, 41) for table in tables]
    packed = packed_tasks(distinct, b)
    assert len(packed) == -(-len(tables) // (CHUNK_SIZE // b))
    assert packed[-1] == 5 * distinct[-1] == 5_695
    wants = [one_table_permutation_pvalues(table, DEFAULT_BATTERY, b, 41) for table in tables]
    for cores in (1, 4):
        monkeypatch.setattr(trendmax.montecarlo, "_CORES", cores)
        calls = count_permuted_rows(monkeypatch)
        got = permutation_pvalues(np.array(tables), DEFAULT_BATTERY, b, seed=41)
        assert calls.pop(0) == len(tables)
        assert sum(calls) == sum(distinct) < len(tables) * b
        assert all(rows <= max(CHUNK_SIZE, b) for rows in calls)
        # the tasks run in order on any core count
        assert calls == packed
        assert len(calls) > 1
        for name, pvalues in got.items():
            assert_bit_identical(pvalues, np.array([want[name] for want in wants]))


def test_batched_permutation_pvalues_keep_peak_memory_to_one_batch(monkeypatch):
    # 120 tables x 1,000 permutations: 120,000 rows scored at once peaked
    # at 31 MB; calls of 5,000 drawn rows peak near 2 MB, and of 10,000 near
    # 3.9 MB. A task of 10 tables scores its about 1,000 distinct rows in one
    # call, beside one table's draws, one task at a time: about 0.94 MB on any core count
    tables = batch_of_tables(120, seed=42)
    for cores, bound in ((1, 3.0), (4, 4 * 0.75)):
        monkeypatch.setattr(trendmax.montecarlo, "_CORES", cores)
        peak = traced_peak_mb(lambda: permutation_pvalues(np.array(tables), DEFAULT_BATTERY,
                                                          1_000, seed=43))
        assert peak < bound, f"{cores} cores"


@pytest.mark.parametrize("count, b", [
    (45, 1_237),  # tasks of eight tables
    (5, CHUNK_SIZE + 1),  # a task per table
    (0, 1_237),
])
def test_permutation_pvalues_do_not_depend_on_core_count(count, b, monkeypatch):
    tables = np.array(batch_of_tables(count, seed=count), dtype=float).reshape(count, 6)
    if count:
        tables[1] = (10, 0, 0, 5, 0, 0)  # every statistic undefined on the observed table
    wants = [one_table_permutation_pvalues(table, DEFAULT_BATTERY, b, 51) for table in tables]
    interval = sys.getswitchinterval()
    for cores in (1, 2, 8):
        monkeypatch.setattr(trendmax.montecarlo, "_CORES", cores)
        sys.setswitchinterval(1e-6 if cores == 8 else interval)
        try:
            got = permutation_pvalues(tables, DEFAULT_BATTERY, b, seed=51)
        finally:
            sys.setswitchinterval(interval)
        assert list(got) == list(DEFAULT_BATTERY)
        for name, pvalues in got.items():
            assert_bit_identical(pvalues, np.array([want[name] for want in wants], dtype=float))


def test_a_draw_error_on_one_table_reaches_the_caller_without_hanging(monkeypatch):
    distinct_case_rows = trendmax.montecarlo._distinct_case_rows
    failing = batch_of_tables(30, seed=54)[17]

    def failing_on_table_17(margins, n_cases, b, rng):
        if margins.tolist() == column_margins(failing) and n_cases == sum(failing[:3]):
            raise RuntimeError("table 17 failed")
        return distinct_case_rows(margins, n_cases, b, rng)

    monkeypatch.setattr(trendmax.montecarlo, "_CORES", 2)
    monkeypatch.setattr(trendmax.montecarlo, "_distinct_case_rows", failing_on_table_17)
    raised = []

    def call() -> None:
        try:
            permutation_pvalues(np.array(batch_of_tables(30, seed=54)), DEFAULT_BATTERY, 1_000, seed=55)
        except RuntimeError as exc:
            raised.append(str(exc))

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert raised == ["table 17 failed"]


def test_permutation_pvalues_start_no_pool_and_the_simulations_keep_theirs(monkeypatch):
    # permutations run on the calling thread, simulations on their pool
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("started a pool")

    monkeypatch.setattr(trendmax.montecarlo, "_CORES", 4)
    monkeypatch.setattr(trendmax.montecarlo, "ThreadPoolExecutor", NoPool)
    b = 1_237  # eight tables per task
    tables = batch_of_tables(20, seed=56)
    got = permutation_pvalues(np.array(tables), DEFAULT_BATTERY, b, seed=57)
    wants = [one_table_permutation_pvalues(table, DEFAULT_BATTERY, b, 57) for table in tables]
    for name, pvalues in got.items():
        assert_bit_identical(pvalues, np.array([want[name] for want in wants]))
    with pytest.raises(RuntimeError, match="started a pool"):
        estimate_critical_values(null_scenario(), DEFAULT_BATTERY, 1_000, seed=1)


def test_permutation_pvalues_build_one_generator_per_call(monkeypatch):
    # each table restores the generator's start state, so it draws what its own default_rng(seed) gives
    b = 1_237  # eight tables per task
    tables = batch_of_tables(30, seed=58)
    built = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(trendmax.montecarlo.np.random, "default_rng", counting)
    got = permutation_pvalues(np.array(tables), DEFAULT_BATTERY, b, seed=59)
    assert built == [(59,)]
    monkeypatch.undo()
    wants = [one_table_permutation_pvalues(table, DEFAULT_BATTERY, b, 59) for table in tables]
    for name, pvalues in got.items():
        assert_bit_identical(pvalues, np.array([want[name] for want in wants]))


# ---------------------------------------------------------------------------
# closed-form normal approximation for MAX thresholds
# ---------------------------------------------------------------------------

def max_point(angles, alpha: float, two_sided: bool) -> float:
    """Upper-alpha point of the maximum of trend statistics at ``angles``."""
    return upper_point(max_tail(angles, two_sided), alpha)


def test_normal_approx_single_coordinate():
    for alpha in (0.01, 0.05, 0.2):
        assert max_point([0.7], alpha, True) == pytest.approx(ndtri(1 - alpha / 2), abs=1e-9)
        assert max_point([0.7], alpha, False) == pytest.approx(ndtri(1 - alpha), abs=1e-9)
    angles = trend_angles(hwe_genotype_freqs(0.3), (0.5,))
    assert max_point(angles, 0.05, True) == pytest.approx(ndtri(0.975), abs=1e-9)


def test_normal_approx_perfect_correlation_collapses():
    for two_sided in (True, False):
        single = max_point([0.4], 0.05, two_sided)
        assert max_point([0.4, 0.4, 0.4], 0.05, two_sided) == pytest.approx(single, abs=1e-9)


def test_normal_approx_threshold_decreases_with_correlation():
    for two_sided in (True, False):
        thresholds = [max_point([0.0, math.acos(rho)], 0.05, two_sided) for rho in (0.0, 0.5, 0.9)]
        assert thresholds[0] > thresholds[1] > thresholds[2]
    # independent pair: P(max > t) = 1 - (1 - sf(t))^2
    assert max_point([0.0, math.pi / 2], 0.05, False) == pytest.approx(ndtri(math.sqrt(0.95)), abs=1e-9)


def test_normal_approx_rejects_degenerate_proportions():
    with pytest.raises(DegenerateProportions):
        trend_angles((0.0, 0.5, 0.5), (0.0, 1.0))
    with pytest.raises(DegenerateProportions):
        trend_angles((0.5, 0.5, 0.0), (0.0, 1.0))
    # a one-sided maximum over directions spread by 1 radian exceeds 0 with probability 1/2 + 1/(2 pi)
    with pytest.raises(InputError, match=r"alpha 0\.7 must lie below the null tail at 0, 0\.659155"):
        max_point([0.0, 1.0], 0.7, False)


def test_one_sided_maximum_has_level_alpha_above_one_half():
    # below sf(0) = 0.659 the one-sided maximum has a threshold, here 0.1443 at alpha = 0.6
    t = max_point([0.0, 1.0], 0.6, False)
    assert t == pytest.approx(0.1443, abs=1e-4)
    b = 200_000
    w = np.random.default_rng(60).standard_normal((b, 2))
    rate = np.mean(np.maximum(w[:, 0], w @ [math.cos(1.0), math.sin(1.0)]) > t)
    assert abs(rate - 0.6) <= 3 * math.sqrt(0.6 * 0.4 / b), rate


@pytest.mark.parametrize("two_sided", [True, False])
def test_upper_point_inverts_the_normal_and_chi_square_tails(two_sided):
    for alpha in np.geomspace(1e-12, 0.3, 41):
        want = -ndtri(alpha / 2 if two_sided else alpha)
        assert upper_point(lambda t: normal_tail(t, two_sided), alpha) == pytest.approx(want, rel=1e-11)
        for df, law in ((1, chi2_1_tail), (2, chi2_2_tail)):
            want = chdtri(df, alpha)
            assert upper_point(lambda t: law(t, two_sided), alpha) == pytest.approx(want, rel=1e-11), df


def owens_t_exceedance(angles, t: float, two_sided: bool) -> float:
    """The gap sum of :func:`max_tail` with scipy's Owen's T: 2 T(t, tan min(g/2, pi/2)) per gap."""
    theta = np.asarray(angles, dtype=float)
    theta = np.sort(np.concatenate([theta, theta + np.pi]) if two_sided else theta)
    gaps = np.diff(theta, append=theta[0] + 2 * np.pi)
    return float(2 * owens_t(t, np.tan(np.minimum(gaps / 2, np.pi / 2))).sum())


def test_max_exceedance_matches_owens_t():
    rng = np.random.default_rng(61)
    sets = [trend_angles(hwe_genotype_freqs(p), xs)
            for p in (0.1, 0.3, 0.5) for xs in [(0.0, 1.0), (0.0, 0.5), (0.0, 0.5, 1.0), DEFAULT_GRID]]
    sets += [[0.0], [0.0, 1.0], [0.0, math.pi / 2], [0.4, 0.4, 0.4]]
    sets += [np.sort(rng.uniform(0.0, 3.0, size=k)) for k in (1, 2, 3, 5, 8, 13)]
    for angles in sets:
        for two_sided in (True, False):
            for t in np.linspace(0.3, 8.0, 40):
                want = owens_t_exceedance(angles, t, two_sided)
                assert max_tail(angles, two_sided)(t) == pytest.approx(want, rel=1e-9), (angles, t)


def test_max_tail_is_the_per_point_gap_sum_bit_for_bit():
    # the tail of a set of directions keeps its half-gaps and cos^2 table; each point is the
    # same floating-point sum as when all of it was rebuilt per point
    nodes, weights = trendmax.robust._unit_legendre()

    def per_point(angles, t, two_sided):
        theta = np.asarray(angles, dtype=float)
        theta = np.sort(np.concatenate([theta, theta + np.pi]) if two_sided else theta)
        h = np.minimum(np.diff(theta, append=theta[0] + 2 * np.pi) / 2, np.pi / 2)
        integrands = np.exp(-t * t / (2 * np.cos(np.multiply.outer(h, nodes)) ** 2))
        return float((h * (integrands @ weights)).sum() / np.pi)

    rng = np.random.default_rng(62)
    for _ in range(100):
        angles = rng.uniform(0.0, 3.0, size=rng.integers(1, 12))
        for two_sided in (True, False):
            tail = max_tail(angles, two_sided)
            for t in (0.0, *rng.uniform(0.0, 8.0, size=3)):
                assert tail(t) == per_point(angles, t, two_sided)


def test_closed_form_laws_miss_the_two_stratum_null():
    # the laws assume HWE in one sampled population. Pooling two allele frequencies (the Wahlund
    # effect) leaves fewer heterozygotes than HWE predicts, so HWD's null is heavier; and with each
    # stratum's counts fixed, the pooled variance behind Z_1/2 has a between-stratum part that the
    # draws lack, so its null is narrower. Simulated: HWD 5.8 to 30, Z_1/2 1.60 to 1.79.
    scenarios = load_scenarios(SCENARIOS / "null_stratified.json")
    for scenario in scenarios:
        cvs = estimate_critical_values(scenario, ("HWD", "Z_HALF"), b=20_000, seed=7)
        assert cvs.thresholds["HWD"] > 5.0, scenario.label  # the chi-square law's 3.84
        assert cvs.thresholds["Z_HALF"] < 1.96, scenario.label  # the normal law's 1.96
    # criticals prints each simulated threshold beside its closed-form twin, so its output shows the gap
    results = json.loads((GOLDEN / "criticals_stratified_json.txt").read_text(encoding="utf-8"))["results"]
    rows = {(r["scenario"], r["statistic"]): (r["threshold"], r["threshold_asymptotic"]) for r in results}
    for scenario in scenarios:
        simulated, asymptotic = rows[scenario.label, "HWD"]
        assert simulated > 1.5 * asymptotic, scenario.label
        simulated, asymptotic = rows[scenario.label, "Z_HALF"]
        assert simulated < asymptotic, scenario.label


def conditioning_integral(angles, t: float, two_sided: bool) -> float:
    """P(max_i <d_i, W> > t) as 1 - int phi(w1) [Phi(hi) - Phi(lo)] dw1, by quad between the kinks."""
    cos, sin = np.cos(angles), np.sin(angles)

    def inside(w1: float) -> float:
        if np.any((sin == 0) & (cos * w1 > t)) or two_sided and np.any((sin == 0) & (cos * w1 < -t)):
            return 0.0
        slanted = sin > 0
        hi = np.min((t - cos[slanted] * w1) / sin[slanted], initial=np.inf)
        lo = np.max((-t - cos[slanted] * w1) / sin[slanted], initial=-np.inf) if two_sided else -np.inf
        return math.exp(-w1 * w1 / 2) / math.sqrt(2 * math.pi) * max(ndtr(hi) - ndtr(lo), 0.0)

    # the integrand has a kink wherever two boundary lines <d_i, w> = +-t cross
    kinks = [t, -t]
    for i, j in itertools.combinations(range(len(angles)), 2):
        if abs(math.sin(angles[j] - angles[i])) > 1e-12:
            kinks += [(ti * sin[j] - tj * sin[i]) / math.sin(angles[j] - angles[i])
                      for ti in (t, -t) for tj in (t, -t)]
    edges = [-12.0, *sorted(x for x in kinks if -12 < x < 12), 12.0]
    return 1.0 - sum(integrate.quad(inside, a, b, limit=200, epsabs=1e-14, epsrel=1e-13)[0]
                     for a, b in zip(edges[:-1], edges[1:]) if b > a)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("xs", [(0.0, 1.0), (0.0, 0.5), (0.0, 0.5, 1.0), DEFAULT_GRID])
def test_normal_approx_exceedance_matches_the_conditioning_integral(p, xs):
    angles = trend_angles(hwe_genotype_freqs(p), xs)
    for two_sided in (True, False):
        for t in (1.5, 2.2, 3.0):
            want = conditioning_integral(angles, t, two_sided)
            assert max_tail(angles, two_sided)(t) == pytest.approx(want, abs=1e-9), (two_sided, t)


@pytest.mark.parametrize("two_sided", [True, False])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_normal_approx_threshold_has_level_alpha_under_mvn_draws(p, two_sided):
    # the oracle draws the numerators (u1, u2) with the NM/MM indicator covariance,
    # standardizes each Z_x on its own and takes the maximum: no angles involved
    props = hwe_genotype_freqs(p)
    p0, p1, p2 = props
    cov = np.array([[p1 * (1 - p1), -p1 * p2], [-p1 * p2, p2 * (1 - p2)]])
    b, alpha = 200_000, 0.05
    u = np.random.default_rng(int(p * 10) + 2 * two_sided).multivariate_normal(np.zeros(2), cov, size=b)
    for xs in [(0.0, 1.0), (0.0, 0.5), (0.0, 0.5, 1.0), DEFAULT_GRID]:
        c = np.array([xs, np.ones(len(xs))])
        z = (u @ c) / np.sqrt(np.einsum("ik,ij,jk->k", c, cov, c))
        decided = (np.abs(z) if two_sided else z).max(axis=1)
        rate = np.mean(decided > max_point(trend_angles(props, xs), alpha, two_sided))
        assert abs(rate - alpha) <= 3 * math.sqrt(alpha * (1 - alpha) / b), (xs, rate)
