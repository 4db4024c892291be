"""Command-line driver: the subcommands analyze, criticals, power, corr and crosstab.

``trendmax --help`` lists them, and each one's ``--help`` describes it.

A statistic is a registry name (MERT, MAX3, CHI2_2DF, ...) or
``MAX[x1:...:xk]``, the maximum over those colon-separated trend scores in
[0, 1], as in ``--battery MAX3,MAX[0:0.3:0.5:1]``; MAXGRID is
``MAX[0:0.1:...:1]``. An unknown or malformed name exits 2.

Simulation subcommands require an explicit --seed. Every output's header
is the parsed request, and the run repeats exactly from it and the same
pack or tables: version, subcommand, the hash of the pack or of the raw
tables in input order (``tables_hash``), then every option in parser
order but --scenarios, --table, --input, --format and --out (an empty
value is an option not given).

Exit codes: 0 is success; 1 means some table or statistic was undefined
everywhere (``analyze``: a table that does not parse, or a statistic
undefined on every table; ``power``: a statistic undefined on every
replicate of a scenario, named on stderr); 2 means bad input, named in one
``trendmax <subcommand>: ...`` stderr line.

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
import functools
import json
import sys
from math import isnan
from pathlib import Path

import numpy as np

from . import __version__
from .battery import DEFAULT_BATTERY, evaluate_battery, max_decided, validate_battery
from .errors import DegenerateProportions, InputError, TrendmaxError
from .montecarlo import (
    estimate_critical_values,
    estimate_power,
    mean_correlation_matrix,
    permutation_pvalues,
    pvalue_crosstab,
    validate_alpha,
)
from .robust import (
    CorrelationTriple,
    batch_correlations,
    estimate_correlations,
    max_tail,
    mert_certificate,
    recommend_robust_test,
    trend_angles,
    upper_point,
)
from .scenarios import distinct_nulls, load_scenarios, scenario_hash
from .tables import parse_table_record, tables_hash

UNDEFINED_OBSERVED = "statistic {} is undefined on the observed table"
IO_DESTS = frozenset({"scenarios", "table", "input", "format", "out"})  # left out of every header
# replicate counts by dest, each with the option that sets it (corr's --b-power is stored as b)
COUNT_OPTIONS = {"b_null": "--b-null", "b_power": "--b-power", "b": "--b-power", "b_reps": "--b-reps"}


BATTERY_HELP = ("comma-separated statistic names, each a registry name or MAX[x1:...:xk], the maximum "
                "over those trend scores in [0,1] (default: all but MAXGRID)")


def _add_common_sim_args(sp, *, battery: bool = False):
    sp.add_argument("--scenarios", required=True, help="path to a JSON scenario file")
    sp.add_argument("--seed", type=int, required=True, help="nonnegative random seed (required)")
    if battery:
        sp.add_argument("--alpha", type=float, default=0.05)
        sp.add_argument("--battery", default=",".join(DEFAULT_BATTERY), help=BATTERY_HELP)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trendmax", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"trendmax {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="analyze observed genotype tables", description=(
        "Statistics, asymptotic p-values, correlation structure and advisory for one or more observed "
        "tables. With --b-perm, permutation p-values of the whole battery from one set of permuted "
        "tables per table, each distinct permuted table scored once. They always permute the raw counts, "
        "so with --correction on a statistic can have a value on the corrected table and still be "
        "undefined on the observed one."))
    sp.add_argument("--table", action="append", default=None,
                    help="one record 'r0 r1 r2 s0 s1 s2' (repeatable)")
    sp.add_argument("--input", default=None,
                    help="file of records, one per line ('-' for stdin)")
    sp.add_argument("--battery", default=",".join(DEFAULT_BATTERY), help=BATTERY_HELP)
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

    sp = sub.add_parser("criticals", help="empirical critical values per scenario beside their asymptotic twins",
                        description=(
        "Empirical upper-alpha critical values per scenario, each distinct null simulated once. Each row "
        "prints the simulated threshold beside threshold_asymptotic, the upper-alpha point of the "
        "statistic's asymptotic null law at the null's pooled genotype proportions, bisected from the "
        "tail that analyze reads its p-values from. It is blank for T_P and T_MAX (no law), for a maximum "
        "at proportions lacking a homozygote, and where the tail at 0 is at most alpha. Every law assumes "
        "HWE in one sampled population, so it is off on two-stratum nulls (the Wahlund effect): on "
        "null_stratified.json the simulated 0.05 thresholds of HWD lie near 6 to 30, not 3.84, and those "
        "of Z_1/2 near 1.6 to 1.8, not 1.96."))
    _add_common_sim_args(sp, battery=True)
    sp.add_argument("--b-null", type=int, default=200_000)

    sp = sub.add_parser("power", help="rejection rates per scenario and statistic", description=(
        "Rejection rates, with their Monte Carlo SEs, of each statistic per scenario (size for a null "
        "scenario), against thresholds simulated once per distinct null. A statistic undefined on every "
        "replicate of a scenario is named on stderr, and the exit code is 1."))
    _add_common_sim_args(sp, battery=True)
    sp.add_argument("--b-null", type=int, default=200_000)
    sp.add_argument("--b-power", type=int, default=10_000)

    sp = sub.add_parser("corr", help="mean plug-in correlation triples per scenario", description=(
        "Replicate means of the plug-in correlation triple of Z_0, Z_1/2 and Z_1 per scenario, with the "
        "share of replicates where it is undefined."))
    _add_common_sim_args(sp)
    sp.add_argument("--b-power", dest="b", type=int, default=10_000,
                    help="replicates per scenario")

    sp = sub.add_parser("crosstab", help="matched p-value cross-tabulation", description=(
        "Matched cross-tabulation of two statistics' empirical p-values on the same replicates, binned "
        "by --bins, per scenario; each distinct null of the pack is simulated once."))
    _add_common_sim_args(sp)
    sp.add_argument("--stat-a", required=True,
                    help="row statistic: a registry name or MAX[x1:...:xk], the maximum over those "
                         "trend scores in [0,1]")
    sp.add_argument("--stat-b", required=True, help="column statistic, named as --stat-a")
    sp.add_argument("--b-null", type=int, default=200_000)
    sp.add_argument("--b-reps", type=int, default=5_000)
    sp.add_argument("--bins", default="0.01,0.05,0.10")

    return parser


def _parse_battery(text: str) -> dict:
    """The --battery names, comma-separated, resolved by :func:`~trendmax.battery.validate_battery`."""
    return validate_battery(name.strip() for name in text.split(",") if name.strip())


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"{flag} must be comma-separated numbers, got {text!r}") from None


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
    battery = _parse_battery(args.battery)
    two_sided = args.sidedness == "two"
    if args.b_perm < 0:
        raise InputError(f"--b-perm must be nonnegative, got {args.b_perm}")
    if args.b_perm and args.seed is None:
        raise InputError("--b-perm requires --seed")

    inputs = [(f"arg{i}", text) for i, text in enumerate(args.table or ())]
    if args.input:
        try:
            text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text(encoding="utf-8")
            text = text.removeprefix("\ufeff")  # drop a leading byte-order mark, as utf-8-sig does
        except UnicodeDecodeError as exc:
            raise InputError(f"{'<stdin>' if args.input == '-' else args.input}: {exc}") from None
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                inputs.append((f"line{lineno}", line))
    if not inputs:
        raise InputError("no input tables (use --table or --input)")

    parsed = {}  # label: cells
    for label, text in inputs:
        try:
            parsed[label] = parse_table_record(text)
        except TrendmaxError as exc:
            print(f"analyze: {label}: {exc}", file=sys.stderr)
    raw = np.array(list(parsed.values())) if parsed else np.empty((0, 6))
    header = _provenance(args, tables_hash=tables_hash(raw))  # early: ~5 MB transient on 10,000 tables
    cells = raw + 0.5 if args.correction == "on" else raw
    values = evaluate_battery(cells, battery, two_sided)
    perms = permutation_pvalues(raw, battery, args.b_perm, seed=args.seed, two_sided=two_sided,
                                observed=values if cells is raw else None,
                                labels=tuple(parsed)) if args.b_perm else None

    columns = ("record", "statistic", "value", "p_asymptotic", "p_permutation", "error")
    # per statistic: its law, its values and its p-values, one Python float per table
    stats = [(name, spec.law, values[name].tolist(),
              None if perms is None else perms[name].tolist()) for name, spec in battery.items()]
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
                if any(map(isnan, triple)):  # the scalar estimate raises, naming the pooled proportions
                    margins = cells[i, :3] + cells[i, 3:]
                    triple = estimate_correlations(margins / margins.sum())
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
    battery = _parse_battery(args.battery)
    validate_alpha(args.alpha)
    columns = ("scenario", "statistic", "threshold", "threshold_asymptotic", "se", "b", "seed")
    nulls = distinct_nulls(scenarios)  # each simulated once, as in power and crosstab
    simulated = {key: estimate_critical_values(null, battery, args.b_null, args.alpha, seed=args.seed).thresholds
                 for key, null in nulls.items()}
    asymptotic = {key: _asymptotic_thresholds(null, battery, args.alpha) for key, null in nulls.items()}
    records = [(scenario.null_scenario().label, name, simulated[scenario.key()][name],
                asymptotic[scenario.key()].get(name), None, args.b_null, args.seed)
               for scenario in scenarios for name in battery]
    _emit(columns, records, args, _provenance(args, scenario_hash=scenario_hash(scenarios)))
    return 0


def _asymptotic_thresholds(null, battery, alpha: float) -> dict[str, float]:
    """Upper-alpha points of the registry laws and of trend maxima at the pooled proportions, where they exist."""
    pooled = sum(np.multiply(case_probs, n_cases) + np.multiply(ctrl_probs, n_controls)
                 for case_probs, ctrl_probs, n_cases, n_controls in null.strata())
    out: dict[str, float] = {}
    for name, spec in battery.items():
        tail = None
        if spec.law is not None:
            tail = functools.partial(spec.law, two_sided=null.two_sided)
        elif spec.combine is max_decided:
            with contextlib.suppress(DegenerateProportions):  # no law without both homozygotes
                tail = max_tail(trend_angles(pooled / pooled.sum(), spec.scores), null.two_sided)
        if tail is not None and tail(0.0) > alpha:
            out[name] = upper_point(tail, alpha)
    return out


def cmd_power(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    battery = _parse_battery(args.battery)
    columns = ("scenario", "statistic", "metric", "rate", "se", "b", "seed")
    # one --seed for the nulls and the power rows alike, so size rows reuse the null draws
    rows = estimate_power(scenarios, battery, b=args.b_power, b_null=args.b_null, alpha=args.alpha,
                          seed=args.seed, null_seed=args.seed)
    records = [(scenario.label, name, "size" if scenario.is_null else "power",
                row.rates[name], row.standard_errors[name], args.b_power, args.seed)
               for scenario, row in zip(scenarios, rows) for name in battery]
    _emit(columns, records, args, _provenance(args, scenario_hash=scenario_hash(scenarios)))
    undefined = [(scenario.label, name) for scenario, row in zip(scenarios, rows)
                 for name, rate in row.error_rates.items() if rate >= 1.0]
    for label, name in undefined:
        print(f"power: {label}: {name} is undefined on every replicate", file=sys.stderr)
    return 1 if undefined else 0


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
    pair = validate_battery(dict.fromkeys((args.stat_a.strip(), args.stat_b.strip())))
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
        for dest, option in COUNT_OPTIONS.items():
            count = getattr(args, dest, None)
            if count is not None and count <= 0:
                raise InputError(f"replicate count must be positive, got {option}={count}")
        return handlers[args.command](args)
    except (TrendmaxError, OSError) as exc:
        print(f"trendmax {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
