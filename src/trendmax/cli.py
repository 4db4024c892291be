"""Command-line driver.

Subcommands:

    analyze    statistics, correlation structure and advisory for one
               or more observed tables; with --b-perm, permutation
               p-values of the whole battery from one set of permuted
               tables per table
    criticals  empirical critical values for scenario packs
    power      rejection rates (size for null scenarios) per scenario
    corr       mean plug-in correlation triples per scenario
    crosstab   matched p-value cross-tabulation of two statistics

Simulation subcommands require an explicit --seed; every output carries a
provenance header (scenario hash, seed, replicate counts, version) from
which the run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np
from scipy.special import chdtrc, ndtr

from . import __version__
from .battery import (
    ALL_STATISTICS,
    DEFAULT_BATTERY,
    DEFAULT_GRID,
    NORMAL_TYPE,
    evaluate_battery,
    validate_battery,
)
from .errors import InputError, TrendmaxError
from .montecarlo import (
    UNDEFINED_OBSERVED,
    estimate_critical_values,
    estimate_power,
    mean_correlation_matrix,
    normal_approx_critical_max,
    permutation_pvalue,
    pvalue_crosstab,
)
from .robust import estimate_correlations, mert_certificate, recommend_robust_test
from .scenarios import load_scenarios, scenario_hash
from .tables import apply_continuity_correction, parse_table_record


def _add_common_sim_args(sp):
    sp.add_argument("--scenarios", required=True, help="path to a JSON scenario file")
    sp.add_argument("--seed", type=int, required=True, help="random seed (required)")
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--battery", default=",".join(DEFAULT_BATTERY),
                    help="comma-separated statistic ids (default: all but MAXGRID)")
    sp.add_argument("--grid", default=None,
                    help="comma-separated scores in [0,1] for MAXGRID")
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
    _add_common_sim_args(sp)
    sp.add_argument("--b-null", type=int, default=200_000)
    sp.add_argument("--normal-approx", action="store_true",
                    help="approximate normal-type thresholds from the analytic "
                         "null correlations instead of null-data simulation")

    sp = sub.add_parser("power", help="rejection rates per scenario and statistic")
    _add_common_sim_args(sp)
    sp.add_argument("--b-null", type=int, default=200_000)
    sp.add_argument("--b-power", type=int, default=10_000)

    sp = sub.add_parser("corr", help="mean plug-in correlation triples per scenario")
    _add_common_sim_args(sp)
    sp.add_argument("--b-power", type=int, default=10_000,
                    help="replicates per scenario")

    sp = sub.add_parser("crosstab", help="matched p-value cross-tabulation")
    _add_common_sim_args(sp)
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
    if not text:
        return DEFAULT_GRID
    return _parse_floats(text, "--grid")


def _emit(lines_or_obj, args, header: dict):
    if args.format == "json":
        payload = {"provenance": header, "results": lines_or_obj}
        text = json.dumps(payload, indent=2, default=float) + "\n"
    else:
        buf = io.StringIO()
        for key, value in header.items():
            buf.write(f"# {key}={value}\n")
        rows = lines_or_obj
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _provenance(args, scenarios, **extra) -> dict:
    header = {
        "version": __version__,
        "command": args.command,
        "scenario_hash": scenario_hash(scenarios),
        "seed": args.seed,
    }
    header.update(extra)
    return header


def _asymptotic_pvalue(name: str, value: float, two_sided: bool) -> float | None:
    """Normal/chi-square tail p-values; None where no asymptotic law exists."""
    if name in ("Z0", "Z_HALF", "Z1", "MERT", "MERT_REC_ADD"):
        if two_sided:
            return 2.0 * float(ndtr(-abs(value)))
        return float(ndtr(-value))
    if name == "CHI2_2DF":
        return float(chdtrc(2, value))
    if name in ("AA", "HWD"):
        return float(chdtrc(1, value))
    return None  # MAX statistics and composites: simulation/permutation only


def cmd_analyze(args) -> int:
    battery = _parse_battery(args.battery)
    grid = _parse_grid(args.grid)
    two_sided = args.sidedness == "two"
    if args.b_perm < 0:
        raise InputError(f"--b-perm must be nonnegative, got {args.b_perm}")

    records: list[tuple[str, str]] = []
    if args.table:
        records.extend((f"arg{i}", text) for i, text in enumerate(args.table))
    if args.input:
        text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                records.append((f"line{lineno}", line))
    if not records:
        print("analyze: no input tables (use --table or --input)", file=sys.stderr)
        return 2

    if args.b_perm and args.seed is None:
        print("analyze: --b-perm requires --seed", file=sys.stderr)
        return 2

    rows = [["record", "statistic", "value", "p_asymptotic", "p_permutation", "error"]]
    results = []
    parse_failures = 0
    n_tables = 0
    stat_errors = {name: 0 for name in battery}
    for label, text in records:
        try:
            raw = parse_table_record(text)
        except TrendmaxError as exc:
            print(f"analyze: {label}: {exc}", file=sys.stderr)
            parse_failures += 1
            continue
        n_tables += 1
        table = apply_continuity_correction(raw) if args.correction == "on" else raw
        values = evaluate_battery(table.to_array(), battery, two_sided, grid)
        perm: dict[str, float] = {}
        perm_error = ""
        if args.b_perm:
            try:
                perm = permutation_pvalue(raw, battery, args.b_perm, seed=args.seed,
                                          two_sided=two_sided, grid=grid,
                                          observed=values if table is raw else None)
            except TrendmaxError as exc:
                perm_error = str(exc)
        for name in battery:
            value = float(values[name][0])
            err = ""
            p_asym = p_perm = ""
            if np.isnan(value):
                err = "undefined on this table"
                stat_errors[name] += 1
            else:
                pa = _asymptotic_pvalue(name, value, two_sided)
                p_asym = f"{pa:.6g}" if pa is not None else ""
                if perm_error:
                    err = perm_error
                elif perm and np.isnan(perm[name]):
                    err = UNDEFINED_OBSERVED.format(name)
                elif perm:
                    p_perm = f"{perm[name]:.6g}"
            rows.append([label, name, "" if np.isnan(value) else f"{value:.6g}",
                         p_asym, p_perm, err])
            results.append({"record": label, "statistic": name,
                            "value": None if np.isnan(value) else value,
                            "p_asymptotic": p_asym or None,
                            "p_permutation": p_perm or None, "error": err or None})
        try:
            triple = estimate_correlations(table.pooled_proportions())
            cert = mert_certificate(table)
            choice, note = recommend_robust_test(triple.rho_0_1)
            extra = [
                ["rho_0_half", f"{triple.rho_0_half:.6g}"],
                ["rho_0_1", f"{triple.rho_0_1:.6g}"],
                ["rho_half_1", f"{triple.rho_half_1:.6g}"],
                ["mert_certificate", str(cert).lower()],
                ["advisory", f"{choice}: {note}"],
            ]
            for key, value in extra:
                rows.append([label, key, value, "", "", ""])
                results.append({"record": label, "statistic": key, "value": value,
                                "p_asymptotic": None, "p_permutation": None, "error": None})
        except TrendmaxError as exc:
            rows.append([label, "correlations", "", "", "", str(exc)])

    header = {"version": __version__, "command": "analyze",
              "sidedness": args.sidedness, "correction": args.correction,
              "b_perm": args.b_perm, "seed": args.seed}
    _emit(results if args.format == "json" else rows, args, header)
    all_errored = n_tables > 0 and any(count == n_tables for count in stat_errors.values())
    return 1 if parse_failures or n_tables == 0 or all_errored else 0


def cmd_criticals(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    battery = _parse_battery(args.battery)
    grid = _parse_grid(args.grid)
    header = _provenance(args, scenarios, alpha=args.alpha, b_null=args.b_null,
                         battery=",".join(battery),
                         mode="normal_approx" if args.normal_approx else "null_simulation")
    rows = [["scenario", "statistic", "threshold", "se", "b", "seed"]]
    results = []
    for scenario in scenarios:
        null = scenario.null_scenario()
        if args.normal_approx:
            thresholds = _normal_approx_thresholds(null, battery, args)
            for name in battery:
                value = thresholds.get(name)
                rows.append([null.label, name,
                             f"{value:.6g}" if value is not None else "", "",
                             args.b_null, args.seed])
                results.append({"scenario": null.label, "statistic": name,
                                "threshold": value, "b": args.b_null, "seed": args.seed})
        else:
            cvs = estimate_critical_values(null, battery, args.b_null, args.alpha,
                                           seed=args.seed, grid=grid)
            for name in battery:
                rows.append([null.label, name, f"{cvs.thresholds[name]:.6g}", "",
                             args.b_null, args.seed])
                results.append({"scenario": null.label, "statistic": name,
                                "threshold": cvs.thresholds[name],
                                "b": args.b_null, "seed": args.seed})
    _emit(results if args.format == "json" else rows, args, header)
    return 0


def _normal_approx_thresholds(null, battery, args) -> dict[str, float]:
    """Thresholds for normal-type statistics from the analytic correlations."""
    strata = null.strata()
    total = sum(nc + ns for _, _, nc, ns in strata)
    pooled = np.zeros(3)
    for case_probs, ctrl_probs, n_cases, n_controls in strata:
        pooled += np.asarray(case_probs) * n_cases + np.asarray(ctrl_probs) * n_controls
    pooled /= total
    triple = estimate_correlations(tuple(pooled))
    rho = triple.as_matrix()
    out: dict[str, float] = {}
    pair_index = {"Z0": [0], "Z_HALF": [1], "Z1": [2],
                  "MAX2": [0, 2], "MAX2_REC_ADD": [0, 1], "MAX3": [0, 1, 2]}
    for name in battery:
        if name not in NORMAL_TYPE or name in ("MERT", "MERT_REC_ADD", "MAXGRID"):
            continue
        idx = pair_index[name]
        sub = rho[np.ix_(idx, idx)]
        out[name] = normal_approx_critical_max(sub, args.alpha, args.b_null,
                                               two_sided=null.two_sided, seed=args.seed)
    return out


def cmd_power(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    battery = _parse_battery(args.battery)
    grid = _parse_grid(args.grid)
    header = _provenance(args, scenarios, alpha=args.alpha, b_null=args.b_null,
                         b_power=args.b_power, battery=",".join(battery))
    rows = [["scenario", "statistic", "metric", "rate", "se", "b", "seed"]]
    results = []
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
        for name in battery:
            rows.append([scenario.label, name, metric, f"{row.rates[name]:.6g}",
                         f"{row.standard_errors[name]:.6g}", args.b_power, args.seed])
            results.append({"scenario": scenario.label, "statistic": name,
                            "metric": metric, "rate": row.rates[name],
                            "se": row.standard_errors[name],
                            "b": args.b_power, "seed": args.seed})
        if any(rate >= 1.0 for rate in row.error_rates.values()):
            exit_code = 1
    _emit(results if args.format == "json" else rows, args, header)
    return exit_code


def cmd_corr(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    header = _provenance(args, scenarios, b=args.b_power)
    rows = [["scenario", "rho_0_half", "rho_0_1", "rho_half_1", "failure_rate", "b", "seed"]]
    results = []
    for scenario in scenarios:
        mc = mean_correlation_matrix(scenario, args.b_power, seed=args.seed)
        rows.append([scenario.label, f"{mc.rho_0_half:.6g}", f"{mc.rho_0_1:.6g}",
                     f"{mc.rho_half_1:.6g}", f"{mc.failure_rate:.6g}", args.b_power, args.seed])
        results.append({"scenario": scenario.label, "rho_0_half": mc.rho_0_half,
                        "rho_0_1": mc.rho_0_1, "rho_half_1": mc.rho_half_1,
                        "failure_rate": mc.failure_rate, "b": args.b_power, "seed": args.seed})
    _emit(results if args.format == "json" else rows, args, header)
    return 0


def cmd_crosstab(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    grid = _parse_grid(args.grid)
    bins = _parse_floats(args.bins, "--bins")
    header = _provenance(args, scenarios, stat_a=args.stat_a, stat_b=args.stat_b,
                         b_null=args.b_null, b_reps=args.b_reps, bins=args.bins)
    rows = [["scenario", "row_bin", "col_bin", "count"]]
    results = []
    for scenario in scenarios:
        tab = pvalue_crosstab(scenario, args.stat_a, args.stat_b,
                              args.b_null, args.b_reps, bins,
                              seed=args.seed, grid=grid)
        labels = tab.bin_labels()
        for i, row_label in enumerate(labels):
            for j, col_label in enumerate(labels):
                rows.append([scenario.label, row_label, col_label, int(tab.counts[i, j])])
        results.append({"scenario": scenario.label, "stat_a": tab.stat_a,
                        "stat_b": tab.stat_b, "bins": labels,
                        "counts": tab.counts.tolist(),
                        "b_null": tab.b_null, "b_reps": tab.b_reps, "seed": tab.seed})
    _emit(results if args.format == "json" else rows, args, header)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "criticals": cmd_criticals,
        "power": cmd_power,
        "corr": cmd_corr,
        "crosstab": cmd_crosstab,
    }
    try:
        return handlers[args.command](args)
    except TrendmaxError as exc:
        print(f"trendmax {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"trendmax {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
