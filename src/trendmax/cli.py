"""Command-line driver.

Subcommands:

    analyze    statistics, correlation structure and advisory for one
               or more observed tables; with --b-perm, permutation
               p-values of the whole battery from one set of permuted
               tables per table, scored in batches that tables share
    criticals  empirical critical values for scenario packs; with
               --normal-approx, closed-form asymptotic thresholds instead
    power      rejection rates (size for null scenarios) per scenario
    corr       mean plug-in correlation triples per scenario
    crosstab   matched p-value cross-tabulation of two statistics

Simulation subcommands require an explicit --seed; every output carries a
provenance header (scenario hash, seed, replicate counts, version) from
which the run can be reproduced exactly. ``criticals --normal-approx``
draws nothing: each threshold is the upper-alpha point of the statistic's
asymptotic null law at the pooled genotype proportions (normal, chi-square,
or the closed form of a maximum of trend statistics), so it does not
depend on the seed or B, and its rows leave ``b`` and ``seed`` empty.
T_P and T_MAX have no such law and stay empty.

Only ``--normal-approx`` loads ``scipy.special``: its thresholds need
``ndtri``, ``chdtri`` and Owen's T, which the functions that use them
import when called. The asymptotic p-values of ``analyze`` follow the
registry's three laws, the normal and the chi-square at 1 and 2 df, whose
tails are ``math.erfc`` and ``math.exp`` in closed form. So no other
request imports scipy, which would add about 0.2 s and 19 MB to each.

Each subcommand builds one list of records, one per output row, keyed by
its column names. CSV prints the header as ``# key=value`` lines, then the
column row, then one row per record (floats as ``.6g``, an empty cell for
a missing value). JSON prints ``{"provenance": header, "results":
records}``: each result carries exactly the CSV columns, in order, numbers
appear as numbers and an empty cell is ``null``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .battery import (
    ALL_STATISTICS,
    DEFAULT_BATTERY,
    DEFAULT_GRID,
    NORMAL,
    STATISTICS,
    evaluate_tables,
    max_decided,
    validate_battery,
)
from .errors import InputError, TrendmaxError
from .montecarlo import (
    UNDEFINED_OBSERVED,
    estimate_critical_values,
    estimate_power,
    mean_correlation_matrix,
    permutation_pvalues,
    pvalue_crosstab,
    validate_alpha,
    validate_replicates,
)
from .robust import (
    estimate_correlations,
    max_threshold,
    mert_certificate,
    recommend_robust_test,
    trend_angles,
    validate_grid,
)
from .scenarios import load_scenarios, scenario_hash
from .tables import apply_continuity_correction, parse_table_record


def _add_common_sim_args(sp, *, battery: bool = False, grid: bool = False):
    sp.add_argument("--scenarios", required=True, help="path to a JSON scenario file")
    sp.add_argument("--seed", type=int, required=True, help="random seed (required)")
    if battery:
        sp.add_argument("--alpha", type=float, default=0.05)
        sp.add_argument("--battery", default=",".join(DEFAULT_BATTERY),
                        help="comma-separated statistic ids (default: all but MAXGRID)")
    if grid:
        sp.add_argument("--grid", default=None, help="comma-separated scores in [0,1] for MAXGRID")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trendmax", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"trendmax {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="analyze observed genotype tables")
    sp.add_argument("--table", action="append", default=None,
                    help="one record 'r0 r1 r2 s0 s1 s2' (repeatable)")
    sp.add_argument("--input", default=None,
                    help="file of records, one per line ('-' for stdin)")
    sp.add_argument("--battery", default=",".join(DEFAULT_BATTERY))
    sp.add_argument("--grid", default=None)
    sp.add_argument("--sidedness", choices=("one", "two"), default="two")
    sp.add_argument("--correction", choices=("on", "off"), default="off",
                    help="+1/2 per cell before computing statistics (default off)")
    sp.add_argument("--b-perm", type=int, default=0,
                    help="permutation replicates for per-statistic p-values")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed for permutation p-values")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("criticals", help="empirical critical values per scenario")
    _add_common_sim_args(sp, battery=True, grid=True)
    sp.add_argument("--b-null", type=int, default=200_000)
    sp.add_argument("--normal-approx", action="store_true",
                    help="closed-form thresholds from each statistic's asymptotic null law "
                         "instead of null-data simulation; seedless and independent of "
                         "--b-null (T_P and T_MAX are left empty)")

    sp = sub.add_parser("power", help="rejection rates per scenario and statistic")
    _add_common_sim_args(sp, battery=True, grid=True)
    sp.add_argument("--b-null", type=int, default=200_000)
    sp.add_argument("--b-power", type=int, default=10_000)

    sp = sub.add_parser("corr", help="mean plug-in correlation triples per scenario")
    _add_common_sim_args(sp)
    sp.add_argument("--b-power", type=int, default=10_000,
                    help="replicates per scenario")

    sp = sub.add_parser("crosstab", help="matched p-value cross-tabulation")
    _add_common_sim_args(sp, grid=True)
    sp.add_argument("--stat-a", required=True, choices=ALL_STATISTICS)
    sp.add_argument("--stat-b", required=True, choices=ALL_STATISTICS)
    sp.add_argument("--b-null", type=int, default=200_000)
    sp.add_argument("--b-reps", type=int, default=5_000)
    sp.add_argument("--bins", default="0.01,0.05,0.10")

    return parser


def _parse_battery(text: str):
    return validate_battery(tuple(name.strip() for name in text.split(",") if name.strip()))


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _parse_grid(text):
    grid = _parse_floats(text, "--grid") if text else DEFAULT_GRID
    try:
        return validate_grid(grid)
    except InputError as exc:
        raise InputError(f"--grid: {exc}") from None


def _cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _emit(columns: tuple[str, ...], records: list[dict], args, header: dict):
    if args.format == "json":
        text = json.dumps({"provenance": header, "results": records}, indent=2) + "\n"
    else:
        buf = io.StringIO()
        for key, value in header.items():
            buf.write(f"# {key}={'' if value is None else value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(record[c]) for c in columns] for record in records)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _provenance(args, scenarios, **extra) -> dict:
    return {"version": __version__, "command": args.command,
            "scenario_hash": scenario_hash(scenarios), "seed": args.seed, **extra}


def _asymptotic_pvalue(name: str, value: float, two_sided: bool) -> float | None:
    """Normal and chi-square (df 1 or 2) tail p-values; None where no asymptotic law exists."""
    law = STATISTICS[name].law
    if law is None:  # simulation or permutation only
        return None
    if law == NORMAL:
        return math.erfc(abs(value) / math.sqrt(2)) if two_sided else math.erfc(value / math.sqrt(2)) / 2
    if law in (1, 2):
        return math.erfc(math.sqrt(value / 2)) if law == 1 else math.exp(-value / 2)
    raise ValueError(f"{name}: no closed-form tail for asymptotic law {law!r}")


def cmd_analyze(args) -> int:
    battery = _parse_battery(args.battery)
    grid = _parse_grid(args.grid)
    two_sided = args.sidedness == "two"
    if args.b_perm < 0:
        raise InputError(f"--b-perm must be nonnegative, got {args.b_perm}")
    if args.b_perm and args.seed is None:
        print("analyze: --b-perm requires --seed", file=sys.stderr)
        return 2

    inputs = [(f"arg{i}", text) for i, text in enumerate(args.table or ())]
    if args.input:
        text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                inputs.append((f"line{lineno}", line))
    if not inputs:
        print("analyze: no input tables (use --table or --input)", file=sys.stderr)
        return 2

    parsed = []
    for label, text in inputs:
        try:
            parsed.append((label, parse_table_record(text)))
        except TrendmaxError as exc:
            print(f"analyze: {label}: {exc}", file=sys.stderr)
    raws = [raw for _, raw in parsed]
    tables = [apply_continuity_correction(raw) for raw in raws] if args.correction == "on" else raws
    values = evaluate_tables(tables, battery, two_sided, grid)
    perms = [{}] * len(raws)
    if args.b_perm:
        perms = permutation_pvalues(raws, battery, args.b_perm, seed=args.seed, two_sided=two_sided,
                                    grid=grid, observed=values if tables is raws else None)

    columns = ("record", "statistic", "value", "p_asymptotic", "p_permutation", "error")
    records = []
    stat_errors = {name: 0 for name in battery}
    for i, ((label, _), table, perm) in enumerate(zip(parsed, tables, perms)):
        for name in battery:
            value = float(values[name][i])
            p_asym = p_perm = err = None
            if np.isnan(value):
                value, err = None, "undefined on this table"
                stat_errors[name] += 1
            else:
                p_asym = _asymptotic_pvalue(name, value, two_sided)
                if isinstance(perm, TrendmaxError):
                    err = str(perm)
                elif perm and np.isnan(perm[name]):
                    err = UNDEFINED_OBSERVED.format(name)
                elif perm:
                    p_perm = float(perm[name])
            records.append(dict(zip(columns, (label, name, value, p_asym, p_perm, err))))
        try:
            triple = estimate_correlations(table.pooled_proportions())
            cert = mert_certificate(table, triple)
            choice, note = recommend_robust_test(triple.rho_0_1)
            extra = {"rho_0_half": triple.rho_0_half, "rho_0_1": triple.rho_0_1,
                     "rho_half_1": triple.rho_half_1, "mert_certificate": str(cert).lower(),
                     "advisory": f"{choice}: {note}"}
            error = None
        except TrendmaxError as exc:
            extra, error = {"correlations": None}, str(exc)
        records.extend(dict(zip(columns, (label, key, value, None, None, error)))
                       for key, value in extra.items())

    header = {"version": __version__, "command": "analyze",
              "sidedness": args.sidedness, "correction": args.correction,
              "b_perm": args.b_perm, "seed": args.seed}
    _emit(columns, records, args, header)
    all_errored = any(count == len(raws) for count in stat_errors.values())  # or no table parsed
    return 1 if len(raws) < len(inputs) or all_errored else 0


def cmd_criticals(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    battery = _parse_battery(args.battery)
    grid = _parse_grid(args.grid)
    validate_alpha(args.alpha)
    header = _provenance(args, scenarios, alpha=args.alpha, b_null=args.b_null,
                         battery=",".join(battery),
                         mode="normal_approx" if args.normal_approx else "null_simulation")
    columns = ("scenario", "statistic", "threshold", "se", "b", "seed")
    b, seed = (None, None) if args.normal_approx else (args.b_null, args.seed)
    records = []
    for scenario in scenarios:
        null = scenario.null_scenario()
        if args.normal_approx:
            thresholds = _normal_approx_thresholds(null, battery, grid, args.alpha)
        else:
            thresholds = estimate_critical_values(null, battery, args.b_null, args.alpha,
                                                  seed=args.seed, grid=grid).thresholds
        records.extend(dict(zip(columns, (null.label, name, thresholds.get(name), None, b, seed)))
                       for name in battery)
    _emit(columns, records, args, header)
    return 0


def _normal_approx_thresholds(null, battery, grid, alpha: float) -> dict[str, float]:
    """Upper-alpha points of the registry laws; maxima of trend statistics at the pooled proportions."""
    from scipy.special import chdtri, ndtri
    pooled = sum(np.multiply(case_probs, n_cases) + np.multiply(ctrl_probs, n_controls)
                 for case_probs, ctrl_probs, n_cases, n_controls in null.strata())
    out: dict[str, float] = {}
    for name in battery:
        spec = STATISTICS[name]
        if spec.law == NORMAL:
            out[name] = float(-ndtri(alpha / 2 if null.two_sided else alpha))
        elif spec.law is not None:
            out[name] = float(chdtri(spec.law, alpha))
        elif spec.combine is max_decided:
            xs = grid if spec.scores is None else spec.scores
            out[name] = max_threshold(trend_angles(pooled / pooled.sum(), xs), alpha, null.two_sided)
    return out


def cmd_power(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    battery = _parse_battery(args.battery)
    grid = _parse_grid(args.grid)
    validate_replicates(args.b_power)  # before the first null run, not after it
    header = _provenance(args, scenarios, alpha=args.alpha, b_null=args.b_null,
                         b_power=args.b_power, battery=",".join(battery))
    columns = ("scenario", "statistic", "metric", "rate", "se", "b", "seed")
    records = []
    criticals_cache: dict[tuple, object] = {}
    exit_code = 0
    for scenario in scenarios:
        null = scenario.null_scenario()
        cache_key = null.key()
        if cache_key not in criticals_cache:
            criticals_cache[cache_key] = estimate_critical_values(
                null, battery, args.b_null, args.alpha,
                seed=args.seed, grid=grid)
        row = estimate_power(scenario, battery, criticals_cache[cache_key],
                             args.b_power, seed=args.seed, grid=grid)
        metric = "size" if scenario.is_null else "power"
        records.extend(dict(zip(columns, (scenario.label, name, metric, row.rates[name],
                                          row.standard_errors[name], args.b_power, args.seed)))
                       for name in battery)
        if any(rate >= 1.0 for rate in row.error_rates.values()):
            exit_code = 1
    _emit(columns, records, args, header)
    return exit_code


def cmd_corr(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    header = _provenance(args, scenarios, b=args.b_power)
    columns = ("scenario", "rho_0_half", "rho_0_1", "rho_half_1", "failure_rate", "b", "seed")
    records = []
    for scenario in scenarios:
        mc = mean_correlation_matrix(scenario, args.b_power, seed=args.seed)
        records.append(dict(zip(columns, (scenario.label, mc.rho_0_half, mc.rho_0_1, mc.rho_half_1,
                                          mc.failure_rate, args.b_power, args.seed))))
    _emit(columns, records, args, header)
    return 0


def cmd_crosstab(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    grid = _parse_grid(args.grid)
    bins = _parse_floats(args.bins, "--bins")
    header = _provenance(args, scenarios, stat_a=args.stat_a, stat_b=args.stat_b,
                         b_null=args.b_null, b_reps=args.b_reps, bins=args.bins)
    columns = ("scenario", "row_bin", "col_bin", "count")
    records = []
    for scenario in scenarios:
        tab = pvalue_crosstab(scenario, args.stat_a, args.stat_b,
                              args.b_null, args.b_reps, bins,
                              seed=args.seed, grid=grid)
        labels = tab.bin_labels()
        records.extend(dict(zip(columns, (scenario.label, row_label, col_label,
                                          int(tab.counts[i, j]))))
                       for i, row_label in enumerate(labels)
                       for j, col_label in enumerate(labels))
    _emit(columns, records, args, header)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"analyze": cmd_analyze, "criticals": cmd_criticals, "power": cmd_power,
                "corr": cmd_corr, "crosstab": cmd_crosstab}
    try:
        return handlers[args.command](args)
    except (TrendmaxError, OSError) as exc:
        print(f"trendmax {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
