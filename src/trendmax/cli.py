"""Command-line driver.

Subcommands:

    analyze    statistics, correlation structure and advisory for one
               or more observed tables; with --b-perm, permutation
               p-values of the whole battery from one set of permuted
               tables per table, each distinct permuted table scored once;
               they always permute the raw counts, so with --correction on
               a statistic can have a value on the corrected table and
               still be undefined on the observed one
    criticals  empirical critical values for scenario packs; with
               --normal-approx, closed-form asymptotic thresholds instead
    power      rejection rates (size for null scenarios) per scenario
    corr       mean plug-in correlation triples per scenario
    crosstab   matched p-value cross-tabulation of two statistics; each
               distinct null of the pack is simulated once

Simulation subcommands require an explicit --seed. Every output's header
is the parsed request, and the run repeats exactly from it and the same
pack or tables: version, subcommand, the hash of the pack or of the raw
tables in input order (``tables_hash``), then every option in parser
order but --scenarios, --table, --input, --format and --out (an empty
value is an option not given). ``criticals --normal-approx``
draws nothing: each threshold is the upper-alpha point of the statistic's
asymptotic null law at the pooled genotype proportions (normal, chi-square,
or the closed form of a maximum of trend statistics), so it does not
depend on the seed or B, and its rows leave ``b`` and ``seed`` empty.
T_P and T_MAX have no such law and stay empty. Each law is a tail
``law(value, two_sided)`` in the registry: ``analyze`` reads asymptotic
p-values from it and ``--normal-approx`` bisects it (``robust.upper_point``),
with nothing but the stdlib and numpy. Every law assumes
Hardy-Weinberg equilibrium in one sampled population, so it is off on
two-stratum nulls (the Wahlund effect): on ``null_stratified.json`` the
simulated 0.05 thresholds of HWD lie near 6 to 30, not 3.84, and those of
Z_1/2 near 1.6 to 1.8, not 1.96. Simulate such nulls.

Each subcommand hands its records, one per output row and each a tuple
in column order, to one writer. CSV prints the header as ``# key=value``
lines, then the column row, then one row per record as it comes (floats
as ``.6g``, an empty cell for a missing value); ``analyze`` yields its
records table by table, so its CSV is written as it is built. JSON zips
each record with the columns and prints ``{"provenance": header,
"results": records}`` once all records are built: each result carries
exactly the CSV columns, in order, numbers appear as numbers and an empty
cell is ``null``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from math import isnan
from pathlib import Path

import numpy as np

from . import __version__
from .battery import (
    ALL_STATISTICS,
    DEFAULT_BATTERY,
    DEFAULT_GRID,
    STATISTICS,
    evaluate_tables,
    max_decided,
    validate_battery,
)
from .errors import InputError, TrendmaxError
from .montecarlo import (
    estimate_critical_values,
    estimate_power,
    mean_correlation_matrix,
    permutation_pvalues,
    pvalue_crosstab,
    validate_alpha,
    validate_replicates,
)
from .robust import (
    CorrelationTriple,
    batch_correlations,
    estimate_correlations,
    max_exceedance,
    mert_certificate,
    recommend_robust_test,
    trend_angles,
    upper_point,
    validate_grid,
)
from .scenarios import load_scenarios, scenario_hash
from .tables import GenotypeTable, parse_table_record, tables_hash

UNDEFINED_OBSERVED = "statistic {} is undefined on the observed table"
IO_DESTS = frozenset({"scenarios", "table", "input", "format", "out"})  # left out of every header


def _add_common_sim_args(sp, *, battery: bool = False, with_grid: bool = False):
    sp.add_argument("--scenarios", required=True, help="path to a JSON scenario file")
    sp.add_argument("--seed", type=int, required=True, help="nonnegative random seed (required)")
    if battery:
        sp.add_argument("--alpha", type=float, default=0.05)
        sp.add_argument("--battery", default=",".join(DEFAULT_BATTERY),
                        help="comma-separated statistic ids (default: all but MAXGRID)")
    if with_grid:
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
                    help="+1/2 per cell before computing statistics (default off); "
                         "permutation p-values always permute the raw counts")
    sp.add_argument("--b-perm", type=int, default=0,
                    help="permutation replicates for per-statistic p-values")
    sp.add_argument("--seed", type=int, default=None,
                    help="nonnegative seed for permutation p-values")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("criticals", help="empirical critical values per scenario")
    _add_common_sim_args(sp, battery=True, with_grid=True)
    sp.add_argument("--b-null", type=int, default=200_000)
    sp.add_argument("--normal-approx", dest="mode", action="store_const", const="normal_approx",
                    default="null_simulation",
                    help="closed-form thresholds from each statistic's asymptotic null law "
                         "instead of null-data simulation; seedless and independent of "
                         "--b-null (T_P and T_MAX are left empty); every law assumes HWE "
                         "in one sampled population and is off on two-stratum nulls")

    sp = sub.add_parser("power", help="rejection rates per scenario and statistic")
    _add_common_sim_args(sp, battery=True, with_grid=True)
    sp.add_argument("--b-null", type=int, default=200_000)
    sp.add_argument("--b-power", type=int, default=10_000)

    sp = sub.add_parser("corr", help="mean plug-in correlation triples per scenario")
    _add_common_sim_args(sp)
    sp.add_argument("--b-power", dest="b", type=int, default=10_000,
                    help="replicates per scenario")

    sp = sub.add_parser("crosstab", help="matched p-value cross-tabulation")
    _add_common_sim_args(sp, with_grid=True)
    sp.add_argument("--stat-a", required=True, choices=ALL_STATISTICS)
    sp.add_argument("--stat-b", required=True, choices=ALL_STATISTICS)
    sp.add_argument("--b-null", type=int, default=200_000)
    sp.add_argument("--b-reps", type=int, default=5_000)
    sp.add_argument("--bins", default="0.01,0.05,0.10")

    return parser


def _parse_battery(text: str, grid_text) -> dict[str, tuple[float, ...]]:
    """The --battery names resolved with the --grid scores; the names are checked before the grid."""
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    validate_battery(names)
    return validate_battery(names, _parse_grid(grid_text))


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _parse_grid(text):
    grid = DEFAULT_GRID if text is None else _parse_floats(text, "--grid")
    try:
        return validate_grid(grid)
    except InputError as exc:
        raise InputError(f"--grid: {exc}") from None


def _emit(columns: tuple[str, ...], records, args, header: dict):
    """Write ``records``, an iterable of tuples in ``columns`` order, to ``--out`` or stdout.

    CSV writes each row as its record comes: an empty cell for ``None``,
    ``.6g`` for a float, ``str`` for anything else. JSON zips every record
    with the columns and builds the whole document first.
    """
    document = None
    if args.format == "json":
        results = [dict(zip(columns, record)) for record in records]
        document = json.dumps({"provenance": header, "results": results}, indent=2) + "\n"
    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if document is not None:
            fh.write(document)
        else:
            for key, value in header.items():
                fh.write(f"# {key}={'' if value is None else value}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(["" if value is None else f"{value:.6g}" if isinstance(value, float)
                              else str(value) for value in record] for record in records)


def _provenance(args, **input_hash) -> dict:
    """The header: version, command, the pack's or tables' hash, then each option of ``args`` but I/O.

    Text is written entry by entry, each entry stripped, so no value breaks a line.
    """
    header = {"version": __version__, "command": args.command, **input_hash}
    for key, value in vars(args).items():
        if key not in header and key not in IO_DESTS:
            header[key] = ",".join(x.strip() for x in value.split(",")) if isinstance(value, str) else value
    return header


def cmd_analyze(args) -> int:
    battery = _parse_battery(args.battery, args.grid)
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

    parsed = {}  # label: cells
    for label, text in inputs:
        try:
            parsed[label] = parse_table_record(text).cells()
        except TrendmaxError as exc:
            print(f"analyze: {label}: {exc}", file=sys.stderr)
    raw = np.array(list(parsed.values())) if parsed else np.empty((0, 6))
    header = _provenance(args, tables_hash=tables_hash(raw))  # early: ~5 MB transient on 10,000 tables
    cells = raw + 0.5 if args.correction == "on" else raw
    values = evaluate_tables(cells, battery, two_sided)
    perms = permutation_pvalues(raw, battery, args.b_perm, seed=args.seed, two_sided=two_sided,
                                observed=values if cells is raw else None) if args.b_perm else None

    columns = ("record", "statistic", "value", "p_asymptotic", "p_permutation", "error")
    # per statistic: its law, its values and its p-values, one Python float per table
    stats = [(name, STATISTICS[name].law, values[name].tolist(),
              None if perms is None else perms[name].tolist()) for name in battery]
    rhos = [rho.tolist() for rho in batch_correlations(cells)]

    def records():
        for i, label in enumerate(parsed):
            for name, law, column, pvalues in stats:
                value = column[i]
                if isnan(value):
                    yield label, name, None, None, None, "undefined on this table"
                    continue
                p_asym = law(value, two_sided) if law else None
                p_perm = err = None
                if pvalues is not None:
                    p_perm = pvalues[i]
                    if isnan(p_perm):
                        p_perm, err = None, UNDEFINED_OBSERVED.format(name)
                yield label, name, value, p_asym, p_perm, err
            triple = CorrelationTriple(*(rho[i] for rho in rhos))
            try:
                if any(map(isnan, triple)):  # the scalar estimate raises, naming the proportions
                    triple = estimate_correlations(GenotypeTable(*cells[i].tolist()).pooled_proportions())
                choice, note = recommend_robust_test(triple.rho_0_1)
                extra = [*zip(CorrelationTriple._fields, triple),
                         ("mert_certificate", str(mert_certificate(triple)).lower()),
                         ("advisory", f"{choice}: {note}")]
                error = None
            except TrendmaxError as exc:
                extra, error = [("correlations", None)], str(exc)
            for key, value in extra:
                yield label, key, value, None, None, error

    _emit(columns, records(), args, header)
    all_errored = any(np.isnan(v).all() for v in values.values())  # or no table parsed
    return 1 if len(parsed) < len(inputs) or all_errored else 0


def cmd_criticals(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    battery = _parse_battery(args.battery, args.grid)
    validate_alpha(args.alpha)
    columns = ("scenario", "statistic", "threshold", "se", "b", "seed")
    normal_approx = args.mode == "normal_approx"
    b, seed = (None, None) if normal_approx else (args.b_null, args.seed)
    records = []
    thresholds: dict[tuple, dict[str, float]] = {}  # per distinct null, as in cmd_power
    for scenario in scenarios:
        null = scenario.null_scenario()
        if null.key() not in thresholds:
            thresholds[null.key()] = (
                _normal_approx_thresholds(null, battery, args.alpha, scenario.label)
                if normal_approx else
                estimate_critical_values(null, battery, args.b_null, args.alpha, seed=args.seed).thresholds)
        records.extend((null.label, name, thresholds[null.key()].get(name), None, b, seed)
                       for name in battery)
    _emit(columns, records, args, _provenance(args, scenario_hash=scenario_hash(scenarios)))
    return 0


def _normal_approx_thresholds(null, battery, alpha: float, label: str) -> dict[str, float]:
    """Upper-alpha points of the registry laws; maxima of trend statistics at the pooled proportions."""
    pooled = sum(np.multiply(case_probs, n_cases) + np.multiply(ctrl_probs, n_controls)
                 for case_probs, ctrl_probs, n_cases, n_controls in null.strata())
    out: dict[str, float] = {}
    for name in battery:
        spec = STATISTICS[name]
        try:
            if spec.law is not None:
                out[name] = upper_point(lambda t: spec.law(t, null.two_sided), alpha)
            elif spec.combine is max_decided:
                angles = trend_angles(pooled / pooled.sum(), battery[name])
                out[name] = upper_point(lambda t: max_exceedance(angles, t, null.two_sided), alpha)
        except InputError as exc:
            raise InputError(f"{exc} ({name}, scenario {label})") from None
    return out


def cmd_power(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    battery = _parse_battery(args.battery, args.grid)
    validate_replicates(args.b_power)  # before the first null run, not after it
    columns = ("scenario", "statistic", "metric", "rate", "se", "b", "seed")
    criticals: dict[tuple, object] = {}
    for null in (scenario.null_scenario() for scenario in scenarios):
        if null.key() not in criticals:
            criticals[null.key()] = estimate_critical_values(null, battery, args.b_null, args.alpha,
                                                             seed=args.seed)
    rows = estimate_power([(scenario, criticals[scenario.key()]) for scenario in scenarios],
                          battery, args.b_power, seed=args.seed)
    records = [(scenario.label, name, "size" if scenario.is_null else "power",
                row.rates[name], row.standard_errors[name], args.b_power, args.seed)
               for scenario, row in zip(scenarios, rows) for name in battery]
    _emit(columns, records, args, _provenance(args, scenario_hash=scenario_hash(scenarios)))
    return 1 if any(rate >= 1.0 for row in rows for rate in row.error_rates.values()) else 0


def cmd_corr(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    columns = ("scenario", *CorrelationTriple._fields, "failure_rate", "b", "seed")
    records = []
    for scenario in scenarios:
        mc = mean_correlation_matrix(scenario, args.b, seed=args.seed)
        records.append((scenario.label, *mc.triple, mc.failure_rate, args.b, args.seed))
    _emit(columns, records, args, _provenance(args, scenario_hash=scenario_hash(scenarios)))
    return 0


def cmd_crosstab(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    pair = validate_battery(tuple(dict.fromkeys((args.stat_a, args.stat_b))), _parse_grid(args.grid))
    bins = _parse_floats(args.bins, "--bins")
    # bins are closed on the left; the last one holds p = 1
    labels = [f"[{lo:g},{hi:g})" for lo, hi in zip((0.0, *bins), bins)] + [f"[{bins[-1]:g},1]"]
    columns = ("scenario", "row_bin", "col_bin", "count")
    tables = pvalue_crosstab(scenarios, pair, args.b_null, args.b_reps, bins, seed=args.seed)
    records = [(scenario.label, row_label, col_label, int(counts[i, j]))
               for scenario, counts in zip(scenarios, tables)
               for i, row_label in enumerate(labels)
               for j, col_label in enumerate(labels)]
    _emit(columns, records, args, _provenance(args, scenario_hash=scenario_hash(scenarios)))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"analyze": cmd_analyze, "criticals": cmd_criticals, "power": cmd_power,
                "corr": cmd_corr, "crosstab": cmd_crosstab}
    try:
        if args.seed is not None and args.seed < 0:  # before any draw; numpy would raise a ValueError
            raise InputError(f"--seed must be a nonnegative integer, got {args.seed}")
        return handlers[args.command](args)
    except (TrendmaxError, OSError) as exc:
        print(f"trendmax {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
