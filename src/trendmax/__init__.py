"""Robust case-control genetic association tests.

Trend tests over genotype scores, maximin efficiency robust combinations
(MERT), maximum statistics (MAX2/MAX3), classical chi-square competitors,
and a reproducible Monte Carlo engine for empirical critical values,
power, correlation structure and matched p-value comparisons.
"""

from .battery import (
    ALL_STATISTICS,
    DEFAULT_BATTERY,
    DEFAULT_GRID,
    evaluate_battery,
    evaluate_single,
    validate_battery,
)
from .errors import (
    CorrelationOutOfRange,
    DegeneratePrevalence,
    DegenerateProportions,
    DegenerateTable,
    EmptyRow,
    FrequencyOutOfRange,
    InputError,
    NegativeCell,
    OrderViolation,
    ScenarioError,
    TrendmaxError,
    UnknownStatistic,
)
from .montecarlo import (
    CriticalValueSet,
    MeanCorrelations,
    PowerRow,
    empirical_upper_quantile,
    estimate_critical_values,
    estimate_power,
    mean_correlation_matrix,
    permutation_pvalue,
    permutation_pvalues,
    pvalue_crosstab,
    simulate_cells,
)
from .population import (
    PenetranceModel,
    Stratum,
    case_control_probs,
    hwe_genotype_freqs,
    optimal_score,
    penetrances_for_model,
    prevalence,
)
from .robust import (
    CorrelationTriple,
    estimate_correlations,
    mert_certificate,
    recommend_robust_test,
)
from .scenarios import Scenario, load_scenarios, parse_scenarios, scenario_hash
from .tables import new_genotype_table, parse_table_record

__version__ = "0.1.0"
