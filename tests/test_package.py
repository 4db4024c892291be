import inspect

import trendmax


def public_callables():
    for name in dir(trendmax):
        obj = getattr(trendmax, name)
        if not name.startswith("_") and callable(obj):
            yield name, obj


def test_every_public_callable_has_its_own_docstring():
    # a dataclass or NamedTuple without a docstring gets a generated
    # "Name(field, ...)" one, and a subclass would inherit its base's
    missing = []
    for name, obj in public_callables():
        doc = obj.__dict__.get("__doc__") if inspect.isclass(obj) else obj.__doc__
        if not doc or not doc.strip() or doc.startswith(f"{obj.__name__}("):
            missing.append(name)
    assert missing == []


# Every public name of the package, so that an addition or a removal shows in a diff.
PUBLIC_API = [
    "ALL_STATISTICS", "CorrelationOutOfRange", "CorrelationTriple", "CriticalValueSet",
    "DEFAULT_BATTERY", "DEFAULT_GRID", "DegeneratePrevalence", "DegenerateProportions",
    "DegenerateTable", "EmptyRow", "FrequencyOutOfRange", "InputError", "MeanCorrelations",
    "NegativeCell", "OrderViolation", "PenetranceModel", "PowerRow", "Scenario", "ScenarioError",
    "Stratum", "TrendmaxError", "UnknownStatistic",
    "case_control_probs", "empirical_upper_quantile", "estimate_correlations",
    "estimate_critical_values", "estimate_power", "evaluate_battery", "evaluate_single",
    "hwe_genotype_freqs", "load_scenarios", "mean_correlation_matrix", "mert_certificate",
    "new_genotype_table", "optimal_score", "parse_scenarios", "parse_table_record",
    "penetrances_for_model", "permutation_pvalue", "permutation_pvalues", "prevalence",
    "pvalue_crosstab", "recommend_robust_test", "scenario_hash", "simulate_cells",
    "validate_battery",
]


def test_the_public_names_are_exactly_the_api():
    # submodules are left out: which of them are attributes depends on what has been imported
    public = [name for name in dir(trendmax) if not name.startswith("_")
              and not inspect.ismodule(getattr(trendmax, name))]
    assert public == PUBLIC_API
