"""Golden-output tests for the command-line driver.

Each case runs ``trendmax.cli.main`` in-process on a shipped scenario
pack (or a small file of tables) at small replicate counts and a fixed
seed, and compares standard output byte for byte with
``tests/golden/<case>.txt``. The goldens pin the determinism contract:
any change to sampling, a statistic kernel or the output format shows up
here.

To re-capture the goldens after an intended output change, run

    PYTHONPATH=src python tests/test_cli.py

and review the diff before committing it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as spstats

from trendmax import __version__
from trendmax.battery import ALL_STATISTICS, DEFAULT_BATTERY, STATISTICS, validate_battery
from trendmax.cli import _emit, build_parser, main
from trendmax.montecarlo import estimate_critical_values
from trendmax.robust import CorrelationTriple
from trendmax.scenarios import load_scenarios, scenario_hash
from trendmax.tables import parse_table_record, tables_hash

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ROOT / "scenarios"
ALL = ",".join(ALL_STATISTICS)

# case name -> argv; every case exits 0
CASES = {
    "analyze_perm": [
        "analyze", "--input", str(GOLDEN / "tables.txt"), "--b-perm", "200", "--seed", "7",
    ],
    "analyze_perm_corrected": [
        "analyze", "--input", str(GOLDEN / "tables.txt"), "--correction", "on",
        "--b-perm", "200", "--seed", "7",
    ],
    "analyze_one_sided_json": [
        "analyze", "--table", "10 20 30 30 20 10", "--table", "3 0 5 9 2 0",
        "--sidedness", "one", "--correction", "on",
        "--battery", ALL.replace("MAXGRID", "MAX[0:0.25:0.5:0.75:1]"), "--format", "json",
    ],
    "criticals_hwe_all": [
        "criticals", "--scenarios", str(SCENARIOS / "null_hwe_250.json"), "--seed", "3",
        "--b-null", "2000", "--battery", ALL,
    ],
    "criticals_stratified_json": [
        "criticals", "--scenarios", str(SCENARIOS / "null_stratified.json"), "--seed", "3",
        "--b-null", "2000", "--format", "json",
    ],
    "criticals_recadd": [  # 12 scenarios on 3 distinct nulls
        "criticals", "--scenarios", str(SCENARIOS / "recadd_subfamily.json"), "--seed", "3",
        "--b-null", "2000",
    ],
    "criticals_unbalanced": [
        "criticals", "--scenarios", str(SCENARIOS / "null_hwe_unbalanced.json"), "--seed", "3",
        "--b-null", "2000",
    ],
    "power_recadd": [
        "power", "--scenarios", str(SCENARIOS / "recadd_subfamily.json"), "--seed", "3",
        "--b-null", "2000", "--b-power", "500",
    ],
    "power_maxgrid_json": [
        "power", "--scenarios", str(SCENARIOS / "crosstab_additive.json"), "--seed", "4",
        "--b-null", "2000", "--b-power", "500",
        "--battery", "Z0,Z_HALF,Z1,MERT,MAX3,MAX[0:0.2:0.4:0.5:0.6:0.8:1]", "--format", "json",
    ],
    "corr_stratified": [
        "corr", "--scenarios", str(SCENARIOS / "null_stratified.json"), "--seed", "3",
        "--b-power", "500",
    ],
    "crosstab_max3_maxgrid": [
        "crosstab", "--scenarios", str(SCENARIOS / "crosstab_additive.json"),
        "--stat-a", "MAX3", "--stat-b", "MAXGRID", "--seed", "3",
        "--b-null", "2000", "--b-reps", "500",
    ],
    "crosstab_chi2_tmax_json": [
        "crosstab", "--scenarios", str(SCENARIOS / "null_hwe_unbalanced.json"),
        "--stat-a", "CHI2_2DF", "--stat-b", "T_MAX", "--seed", "5",
        "--b-null", "2000", "--b-reps", "500", "--bins", "0.05,0.5", "--format", "json",
    ],
    # a MAX over custom scores through every path that takes a name; each differs from its MAXGRID output
    "criticals_custom_grid": [
        "criticals", "--scenarios", str(SCENARIOS / "null_hwe_250.json"), "--seed", "3",
        "--b-null", "2000", "--battery", "MAX3,MAX[0:0.3:0.5:1]",
    ],
    "criticals_unbalanced_custom_grid": [
        "criticals", "--scenarios", str(SCENARIOS / "null_hwe_unbalanced.json"), "--seed", "3",
        "--b-null", "2000", "--battery", "MAX3,MAX[0:0.3:0.5:1]",
    ],
    "crosstab_recadd_custom_grid": [  # 12 scenarios on 3 distinct nulls
        "crosstab", "--scenarios", str(SCENARIOS / "recadd_subfamily.json"),
        "--stat-a", "MAX3", "--stat-b", "MAX[0:0.3:0.5:1]", "--seed", "3",
        "--b-null", "2000", "--b-reps", "500",
    ],
    "analyze_perm_custom_grid": [
        "analyze", "--input", str(GOLDEN / "tables.txt"), "--battery", "MAX3,MAX[0:0.3:0.5:1]",
        "--b-perm", "200", "--seed", "7",
    ],
}


def run_cli(argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden_output(case):
    code, out, err = run_cli(CASES[case])
    assert code == 0, err
    assert out == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")


def run_python(code: str, *flags: str, args=()) -> subprocess.CompletedProcess:
    """Run ``code`` with ``sys.argv[1:] == args`` in a fresh interpreter with ``src/`` on the path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *flags, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_out():
    # scipy.special alone added about 0.2 s and 19 MB to every request, against a benchmark
    # setup_s of about 0.1 s without it; no request loads scipy
    for module in ("trendmax", "trendmax.cli"):
        proc = run_python(f"import sys, {module}; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", module


# scipy is a test dependency only: with None in sys.modules, any import of it raises
@pytest.mark.parametrize("case", sorted(CASES))
def test_no_request_loads_scipy(case):
    proc = run_python("import sys; sys.modules['scipy'] = None; from trendmax.cli import main; "
                      "sys.exit(main(sys.argv[1:]))", args=CASES[case])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("two_sided", [True, False])
def test_asymptotic_pvalue_matches_scipy_stats(two_sided):
    # the stdlib's erfc and exp differ from scipy.stats in the last few bits (at most 3.6e-14
    # relative here), and are no less accurate: against 40-digit mpmath they err at most
    # 2.3e-14 (normal) and 6.5e-15 (chi-square df 1), scipy.stats 2.9e-14 and 2.6e-14
    def close(got, want):
        return math.isclose(got, want, rel_tol=1e-13)

    normal = ("Z0", "Z_HALF", "Z1", "MERT", "MERT_REC_ADD")
    for x in np.linspace(-12.0, 12.0, 481):
        want = 2.0 * spstats.norm.sf(abs(x)) if two_sided else spstats.norm.sf(x)
        for name in normal:
            assert close(STATISTICS[name].law(x, two_sided), want)
    for x in np.linspace(0.0, 120.0, 481):
        assert close(STATISTICS["CHI2_2DF"].law(x, two_sided), spstats.chi2.sf(x, df=2))
        for name in ("AA", "HWD"):
            assert close(STATISTICS[name].law(x, two_sided), spstats.chi2.sf(x, df=1))
    for name in ("MAX2", "MAX2_REC_ADD", "MAX3", "MAXGRID", "T_P", "T_MAX"):
        assert STATISTICS[name].law is None
    assert validate_battery(("MAX[0:0.3:1]",))["MAX[0:0.3:1]"].law is None


def test_every_registry_law_has_a_closed_form_tail():
    assert all(spec.law is None or callable(spec.law) for spec in STATISTICS.values())


def test_negative_b_perm_is_rejected_before_reading_tables(tmp_path):
    missing = tmp_path / "missing.txt"
    code, out, err = run_cli(["analyze", "--input", str(missing), "--b-perm", "-5", "--seed", "7"])
    assert code == 2
    assert out == ""
    assert "--b-perm" in err and "-5" in err


def test_b_perm_without_seed_is_rejected_before_reading_tables(tmp_path, monkeypatch):
    missing = tmp_path / "missing.txt"
    code, out, err = run_cli(["analyze", "--input", str(missing), "--b-perm", "5"])
    assert code == 2
    assert out == ""
    assert err == "trendmax analyze: --b-perm requires --seed\n"
    stdin = io.StringIO("10 20 30 30 20 10\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(["analyze", "--input", "-", "--b-perm", "5"])
    assert code == 2
    assert out == ""
    assert err == "trendmax analyze: --b-perm requires --seed\n"
    assert stdin.tell() == 0  # stdin is left unread


def test_analyze_without_tables_exits_2_with_one_line(tmp_path):
    path = tmp_path / "tables.txt"
    path.write_text("# a comment\n\n   \n", encoding="utf-8")
    for argv in (["analyze"], ["analyze", "--input", str(path)]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err == "trendmax analyze: no input tables (use --table or --input)\n"


@pytest.mark.parametrize("argv, message", [
    (CASES["criticals_hwe_all"][:-4] + ["--alpha", "1.5"], "alpha 1.5 must lie strictly in (0, 1)"),
    (CASES["power_recadd"][:-4] + ["--alpha", "0"], "alpha 0.0 must lie strictly in (0, 1)"),
    (CASES["power_recadd"][:-4] + ["--b-power", "0"], "replicate count must be positive, got --b-power=0"),
    (CASES["criticals_unbalanced"][:-2] + ["--alpha", "2"],
     "alpha 2.0 must lie strictly in (0, 1)"),
    (CASES["crosstab_max3_maxgrid"] + ["--b-reps", "0"], "replicate count must be positive, got --b-reps=0"),
    (CASES["criticals_unbalanced"] + ["--battery", "CHI2_2DF,HWD", "--alpha", "2"],
     "alpha 2.0 must lie strictly in (0, 1)"),
    (CASES["crosstab_max3_maxgrid"] + ["--b-null", "0"], "replicate count must be positive, got --b-null=0"),
    (CASES["corr_stratified"][:-2] + ["--b-power", "0"], "replicate count must be positive, got --b-power=0"),
])
def test_invalid_alpha_or_replicate_count_exits_2_before_any_draw(argv, message, monkeypatch):
    import trendmax.montecarlo

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before validating its arguments")

    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", no_draw)
    monkeypatch.setattr(trendmax.montecarlo.np.random, "default_rng", no_draw)
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command", ["criticals", "power"])
def test_a_genome_wide_alpha_without_enough_null_replicates_exits_2_with_one_line(command, monkeypatch):
    # at alpha = 5e-8, 20,000 null replicates leave no value above the threshold's rank: a sample maximum
    import trendmax.montecarlo

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the replicate rule")

    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", no_draw)
    code, out, err = run_cli([command, "--scenarios", str(SCENARIOS / "null_hwe_250.json"), "--seed", "1",
                              "--alpha", "5e-8", "--b-null", "20000", "--battery", "Z_HALF,MAX3"])
    assert (code, out) == (2, "")
    assert err == (f"trendmax {command}: alpha=5e-08 needs at least 200000000 null replicates, "
                   "max(1000, ceil(10/alpha)); got 20000\n")


@pytest.mark.parametrize("command", ["criticals", "power"])
def test_an_alpha_whose_replicate_rule_overflows_exits_2_with_one_line(command, monkeypatch):
    # 10 / 5e-324 is inf as a float, and math.ceil(inf) would end in an OverflowError traceback
    import trendmax.montecarlo

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the replicate rule")

    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", no_draw)
    code, out, err = run_cli([command, "--scenarios", str(SCENARIOS / "null_hwe_250.json"), "--seed", "1",
                              "--alpha", "5e-324", "--b-null", "1000"])
    assert (code, out) == (2, "")
    assert err == (f"trendmax {command}: alpha=4.94066e-324 needs at least inf null replicates, "
                   "max(1000, ceil(10/alpha)); got 1000\n")


@pytest.mark.parametrize("command", ["criticals", "power"])
def test_an_alpha_whose_replicate_rule_is_past_2_to_the_53_prints_six_digits(command, monkeypatch):
    # ceil(10 / 1e-307) is the float 1e308 as an exact integer, 309 digits of rounding
    import trendmax.montecarlo

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the replicate rule")

    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", no_draw)
    code, out, err = run_cli([command, "--scenarios", str(SCENARIOS / "null_hwe_250.json"), "--seed", "1",
                              "--alpha", "1e-307", "--b-null", "1000"])
    assert (code, out) == (2, "")
    assert err == (f"trendmax {command}: alpha=1e-307 needs at least 1e+308 null replicates, "
                   "max(1000, ceil(10/alpha)); got 1000\n")
    assert len(err.encode()) < 200


@pytest.mark.parametrize("argv", [
    ["analyze", "--table", "1 2 3 4 5 6", "--b-perm", "10", "--seed", "-5"],
    CASES["criticals_hwe_all"] + ["--seed", "-5"],
    CASES["power_recadd"] + ["--seed", "-5"],
    CASES["corr_stratified"] + ["--seed", "-5"],
    CASES["crosstab_max3_maxgrid"] + ["--seed", "-5"],
], ids=lambda argv: argv[0])
def test_negative_seed_exits_2_with_one_line_before_any_draw(argv, monkeypatch):
    # numpy's SeedSequence and default_rng would end in a ValueError traceback
    import trendmax.montecarlo

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before validating the seed")

    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", no_draw)
    monkeypatch.setattr(trendmax.montecarlo.np.random, "default_rng", no_draw)
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err == f"trendmax {argv[0]}: --seed must be a nonnegative integer, got -5\n"


def test_asymptotic_thresholds_do_not_depend_on_seed_or_b():
    base = CASES["criticals_unbalanced"][:3] + ["--battery", ALL + ",MAX[0:0.3:0.5:1]"]
    runs = [run_cli(base + ["--seed", seed, "--b-null", b]) for seed, b in (("3", "2000"), ("11", "1000"))]
    assert [code for code, _, _ in runs] == [0, 0], runs[0][2]
    first, second = (out_rows(out) for _, out, _ in runs)
    assert [row[3] for row in first] == [row[3] for row in second]
    assert [row[2] for row in first] != [row[2] for row in second]
    assert {row[1] for row in first if row[3] == ""} == {"T_P", "T_MAX"}
    # every row is a simulated one and says how it was drawn
    assert {tuple(row[5:]) for row in first} == {("2000", "3")}
    assert {tuple(row[5:]) for row in second} == {("1000", "11")}


@pytest.mark.parametrize("record, battery, alpha, blank", [
    # a one-sided normal tail is 1/2 at 0, and that of MAX2 at p = 0.3 is 1/2 + theta_1 / (2 pi) = 0.700
    ({"p": 0.3, "sidedness": "one"}, "Z0,MERT,MAX2", 0.6, {"Z0", "MERT"}),
    ({"p": 0.3, "sidedness": "one"}, "Z0,MERT,MAX2", 0.45, set()),
    # p^2 underflows, so the pooled proportions hold one homozygote: MAX3's law raises DegenerateProportions
    ({"p": 1e-200}, "Z0,MAX3", 0.05, {"MAX3"}),
], ids=["one_sided_alpha_above_the_tail_at_zero", "one_sided_alpha_below_it", "one_homozygote"])
def test_a_threshold_without_a_closed_form_leaves_its_cell_blank_and_the_simulation_stands(
        tmp_path, record, battery, alpha, blank):
    pack = tmp_path / "pack.json"
    pack.write_text(json.dumps([{"id": "one", "model": "null", "r": 250, "s": 250, **record}]))
    code, out, err = run_cli(["criticals", "--scenarios", str(pack), "--seed", "1", "--b-null", "1000",
                              "--battery", battery, "--alpha", str(alpha)])
    assert code == 0, err
    rows = out_rows(out)
    names = battery.split(",")
    [null] = load_scenarios(pack)
    simulated = estimate_critical_values(null, names, 1000, alpha, seed=1).thresholds
    assert [row[:3] for row in rows] == [["one", name, f"{simulated[name]:.6g}"] for name in names]
    assert {row[1] for row in rows if row[3] == ""} == blank
    assert all(float(row[3]) > 0 for row in rows if row[1] not in blank)


@pytest.mark.parametrize("battery, alpha", [("Z0", "0.5"), ("MERT", "0.6"), ("MAX2", "0.75")])
def test_normal_approx_one_sided_alpha_above_the_tail_at_zero_exits_2(tmp_path, capsys, battery, alpha):
    # a one-sided normal tail is 1/2 at 0, and that of MAX2 at p = 0.3 is 1/2 + theta_1 / (2 pi) = 0.700
    pack = tmp_path / "one_sided.json"
    pack.write_text('[{"id": "one", "model": "null", "p": 0.3, "r": 250, "s": 250, "sidedness": "one"}]')
    argv = ["criticals", "--scenarios", str(pack), "--seed", "1", "--b-null", "1000",
            "--battery", battery, "--alpha", alpha]
    # the --normal-approx mode is gone: a command line that still asks for it is refused, not run without it
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--normal-approx"])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --normal-approx" in err
    # without it the simulated threshold stands and the closed form, which has no upper-alpha point, is blank
    code, out, err = run_cli(argv)
    assert code == 0, err
    [row] = out_rows(out)
    assert row[1:2] + row[3:4] == [battery, ""]
    assert math.isfinite(float(row[2]))
    code, out, err = run_cli(argv[:-1] + ["0.45"])
    assert code == 0, err
    assert float(out_rows(out)[0][3]) > 0


@pytest.mark.parametrize("argv, message", [
    (["criticals", "--b-null", "1000"], "no finite values to take a quantile of (Z0, scenario rare)"),
    (["power", "--b-null", "1000"], "no finite values to take a quantile of (Z0, scenario rare)"),
    (["corr", "--b-power", "1000"], "correlation estimation failed on every replicate (scenario rare)"),
], ids=["criticals", "power", "corr"])
def test_a_run_without_a_finite_value_names_the_statistic_and_the_scenario(tmp_path, argv, message):
    # at p = 1e-6 every uncorrected 5 + 5 table is all MM: no statistic and no correlation is defined
    pack = tmp_path / "rare.json"
    pack.write_text('[{"id": "rare", "model": "null", "p": 1e-6, "r": 5, "s": 5, "correction": false}]')
    code, out, err = run_cli([argv[0], "--scenarios", str(pack), "--seed", "1", *argv[1:]])
    assert code == 2
    assert out == ""
    assert err == f"trendmax {argv[0]}: {message}\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_out_writes_the_golden_to_the_file_and_nothing_to_stdout(case, tmp_path):
    path = tmp_path / f"{case}.txt"
    code, out, err = run_cli(CASES[case] + ["--out", str(path)])
    assert code == 0, err
    assert out == ""
    assert path.read_bytes() == (GOLDEN / f"{case}.txt").read_bytes()


def test_crosstab_labels_its_bins_from_the_parsed_bins():
    code, out, err = run_cli(CASES["crosstab_max3_maxgrid"] + ["--bins", "0.2"])
    assert code == 0, err
    rows = out_rows(out)
    assert [row[1:3] for row in rows] == [["[0,0.2)", "[0,0.2)"], ["[0,0.2)", "[0.2,1]"],
                                          ["[0.2,1]", "[0,0.2)"], ["[0.2,1]", "[0.2,1]"]]
    assert sum(int(row[3]) for row in rows) == 500


def test_analyze_input_file_is_closed():
    argv = CASES["analyze_perm"]
    proc = run_python(f"import sys; from trendmax.cli import main; sys.exit(main({argv!r}))",
                      "-W", "error::ResourceWarning")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == (GOLDEN / "analyze_perm.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, flag", [
    (CASES["crosstab_max3_maxgrid"] + ["--bins", "x"], "--bins"),
    # an empty --bins is not the default bins: only a missing flag is
    (CASES["crosstab_max3_maxgrid"] + ["--bins", ""], "--bins"),
    (CASES["crosstab_chi2_tmax_json"][:-4] + ["--bins", "0.05,x"], "--bins"),
])
def test_unparsable_numbers_name_their_flag(argv, flag):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err == f"trendmax {argv[0]}: {flag} must be comma-separated numbers, got {argv[-1]!r}\n"


@pytest.mark.parametrize("grid", ["0,1.5", "0,nan", "-0.5,1", "0,inf"])
@pytest.mark.parametrize("case", ["analyze_one_sided_json", "crosstab_max3_maxgrid"])
def test_grid_scores_outside_unit_interval_are_an_error(case, grid):
    name = f"MAX[{grid.replace(',', ':')}]"
    code, out, err = run_cli(CASES[case] + ["--stat-b" if case.startswith("crosstab") else "--battery", name])
    assert code == 2
    assert out == ""
    assert err.startswith(f"trendmax {CASES[case][0]}: {name}: grid scores must lie in [0, 1]")


@pytest.mark.parametrize("argv", [
    ["analyze", "--table", "10 20 30 30 20 10", "--battery", "Z0,MAX[0:7]"],
    CASES["power_recadd"] + ["--battery", "Z0,MAX[0:7]"],
])
def test_grid_is_validated_without_maxgrid_in_the_battery(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert "MAX[0:7]" in err and "grid scores must lie in [0, 1]" in err


# each subcommand that names statistics, with the flag that names them
NAMING = {
    "analyze": (["analyze", "--table", "10 20 30 30 20 10", "--b-perm", "10", "--seed", "1"], "--battery"),
    "criticals": (CASES["criticals_custom_grid"], "--battery"),
    "power": (CASES["power_recadd"], "--battery"),
    "crosstab": (CASES["crosstab_max3_maxgrid"], "--stat-b"),
}


@pytest.mark.parametrize("command", sorted(NAMING))
@pytest.mark.parametrize("value, bad, message", [
    ("MAX[]", "MAX[]", "MAX[]: score grid must be nonempty"),
    ("MAX[0:1.5]", "MAX[0:1.5]", "MAX[0:1.5]: grid scores must lie in [0, 1], got 1.5"),
    ("MAX[a]", "MAX[a]", "MAX[a]: score grid must be a sequence of numbers"),
    # --battery splits on commas, so a comma inside the brackets leaves a name without its "]"
    ("MAX[0,1]", "MAX[0", "unknown statistic 'MAX[0'; known: "),
    ("NOPE", "NOPE", "unknown statistic 'NOPE'; known: "),
])
def test_a_bad_statistic_name_exits_2_with_one_line_naming_it_before_any_draw(command, value, bad, message,
                                                                              monkeypatch):
    import trendmax.montecarlo

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before resolving the statistic names")

    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", no_draw)
    monkeypatch.setattr(trendmax.montecarlo.np.random, "default_rng", no_draw)
    argv, flag = NAMING[command]
    if flag == "--stat-b" and "," in value:
        value = bad  # --stat-b takes one name; no comma splits it
    code, out, err = run_cli(argv + [flag, value])
    assert code == 2
    assert out == ""
    assert err.startswith(f"trendmax {command}: {message}") and err.count("\n") == 1
    assert bad in err


@pytest.mark.parametrize("command", sorted(NAMING))
def test_grid_is_no_longer_an_option(command, capsys):
    # MAX[x1:...:xk] names carry their scores
    assert_unrecognized(NAMING[command][0], ["--grid", "0,0.5,1"], capsys)


NULL_P30 = {"model": "null", "p": 0.3, "r": 250, "s": 250}


@pytest.mark.parametrize("rec, message", [
    ({**NULL_P30, "p": "abc"}, "'p' must be a number, got 'abc'"),
    ({**NULL_P30, "p": None}, "'p' must be a number, got None"),
    ({**NULL_P30, "model": "add", "f0": "x", "f2": 0.2}, "'f0' must be a number, got 'x'"),
    ({**NULL_P30, "p": 0.0}, "allele frequency 0.0 not in (0, 1)"),
    ({**NULL_P30, "model": "add", "f0": 0.3, "f2": 0.2}, "f2 (0.2) must not be smaller than f0 (0.3)"),
    # a named model's explicit f1 must match its rule
    ({**NULL_P30, "model": "rec", "f0": 0.01, "f1": 0.03, "f2": 0.03},
     "recessive model: f1 must be 0.01 from f0 and f2, got 0.03"),
    ({**NULL_P30, "model": "add", "f0": 0.01, "f1": 0.01, "f2": 0.03},
     "additive model: f1 must be 0.02 from f0 and f2, got 0.01"),
    ({**NULL_P30, "model": "dom", "f0": 0.01, "f1": 0.02, "f2": 0.03},
     "dominant model: f1 must be 0.03 from f0 and f2, got 0.02"),
    ({"model": "null", "pA": 0.1, "pB": 0.4, "R1": 30, "S1": 150, "R2": 20, "S2": 100, "r": 60},
     "mixture case split 30+20 does not sum to r=60"),
    # beyond the sampler's int64 counts: an error line, not an OverflowError traceback
    ({**NULL_P30, "r": 1e20}, "case and control counts must not exceed 9223372036854775807, got 100000000000000000000"),
])
def test_invalid_scenario_exits_2_with_one_line_naming_the_record(rec, message, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([rec]), encoding="utf-8")
    code, out, err = run_cli(["criticals", "--scenarios", str(path), "--seed", "1", "--b-null", "100"])
    assert code == 2
    assert out == ""
    assert err == f"trendmax criticals: {path}[0]: {message}\n"


def assert_unrecognized(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


@pytest.mark.parametrize("flag", [["--alpha", "7"], ["--battery", "NOPE"], ["--grid", "x"]])
def test_corr_rejects_options_it_does_not_use(flag, capsys):
    assert_unrecognized(CASES["corr_stratified"], flag, capsys)


@pytest.mark.parametrize("flag", [["--alpha", "7"], ["--battery", "NOPE"]])
def test_crosstab_rejects_options_it_does_not_use(flag, capsys):
    assert_unrecognized(CASES["crosstab_max3_maxgrid"], flag, capsys)


@pytest.mark.parametrize("b_perm", ["200", "3000"])
def test_analyze_scores_the_observed_tables_in_one_call_and_no_call_exceeds_the_row_cap(
        monkeypatch, b_perm):
    import trendmax.battery
    import trendmax.cli
    import trendmax.montecarlo

    calls = []

    def counting(original):
        def wrapper(cells, *args, **kwargs):
            calls.append(len(np.atleast_2d(cells)))
            return original(cells, *args, **kwargs)
        return wrapper

    for module in (trendmax.battery, trendmax.cli, trendmax.montecarlo):
        monkeypatch.setattr(module, "evaluate_battery", counting(module.evaluate_battery))
    code, out, err = run_cli(CASES["analyze_perm"][:-4] + ["--b-perm", b_perm, "--seed", "7"])
    assert code == 0, err
    if b_perm == "200":
        assert out == (GOLDEN / "analyze_perm.txt").read_text(encoding="utf-8")
    n_tables = sum(1 for line in (GOLDEN / "tables.txt").read_text().splitlines()
                   if line.strip() and not line.startswith("#"))
    # the observed tables first, all in one call; then one call per task, of
    # its tables' distinct permuted rows. A task holds the tables whose draws
    # total at most CHUNK_SIZE: at b = 200 the 7 tables are one task, at
    # b = 3,000 three (3, 3 and 1 tables)
    assert calls[0] == n_tables
    assert all(rows <= max(trendmax.battery.CHUNK_SIZE, int(b_perm)) for rows in calls)
    assert len(calls) == 1 + -(-n_tables // (trendmax.montecarlo.CHUNK_SIZE // int(b_perm)))


def test_criticals_simulates_each_distinct_null_once(monkeypatch):
    import trendmax.cli

    calls = []
    original = trendmax.cli.estimate_critical_values

    def counting(null, *args, **kwargs):
        calls.append(null.key())
        return original(null, *args, **kwargs)

    def counting_asymptotic(null, *args):
        asymptotic.append(null.key())
        return original_asymptotic(null, *args)

    asymptotic, original_asymptotic = [], trendmax.cli._asymptotic_thresholds
    monkeypatch.setattr(trendmax.cli, "estimate_critical_values", counting)
    monkeypatch.setattr(trendmax.cli, "_asymptotic_thresholds", counting_asymptotic)
    code, out, err = run_cli(CASES["criticals_recadd"])
    assert code == 0, err
    assert len(calls) == len(set(calls)) == 3
    assert asymptotic == calls  # once per distinct null as well
    # the golden was captured when every scenario ran its own null; each
    # scenario's rows keep its own null label
    assert out == (GOLDEN / "criticals_recadd.txt").read_text(encoding="utf-8")
    assert len({row[0] for row in out_rows(out)}) == 12


def test_power_simulates_each_distinct_null_once(monkeypatch):
    import trendmax.montecarlo

    calls = []
    original = trendmax.montecarlo.estimate_critical_values

    def counting(null, *args, **kwargs):
        calls.append(null.key())
        return original(null, *args, **kwargs)

    monkeypatch.setattr(trendmax.montecarlo, "estimate_critical_values", counting)
    code, out, err = run_cli(CASES["power_recadd"])
    assert code == 0, err
    assert len(calls) == len(set(calls)) == 3
    assert out == (GOLDEN / "power_recadd.txt").read_text(encoding="utf-8")
    assert len({row[0] for row in out_rows(out)}) == 12


def test_power_names_each_statistic_undefined_on_every_replicate(tmp_path):
    # one case among 50 controls, nearly always MM: HWD has no value on any replicate, Z_1/2 always rejects
    pack = tmp_path / "one_case.json"
    pack.write_text('[{"p": 0.5, "r": 1, "s": 50, "model": "custom", "f0": 1e-9, "f1": 1e-9, "f2": 0.99, '
                    '"correction": false}]')
    code, out, err = run_cli(["power", "--scenarios", str(pack), "--seed", "1", "--b-null", "1000",
                              "--b-power", "1000", "--battery", "HWD,Z_HALF"])
    assert code == 1
    assert err == "power: scenario0: HWD is undefined on every replicate\n"
    # the rows still print the rate as counted: an undefined value never rejects
    assert out_rows(out) == [["scenario0", "HWD", "power", "0", "0", "1000", "1"],
                             ["scenario0", "Z_HALF", "power", "1", "0", "1000", "1"]]


@pytest.mark.parametrize("command, phrases", [
    ("analyze", ["Statistics, asymptotic p-values, correlation structure and advisory"]),
    ("criticals", ["threshold_asymptotic, the upper-alpha point of the statistic's asymptotic null law",
                   "It is blank for T_P and T_MAX (no law), for a maximum at proportions lacking a "
                   "homozygote, and where the tail at 0 is at most alpha.",
                   "--b-null must be at least max(1000, ceil(10/alpha))"]),
    ("power", ["A statistic undefined on every replicate of a scenario is named on stderr"]),
    ("corr", ["Replicate means of the plug-in correlation triple"]),
    ("crosstab", ["Matched cross-tabulation of two statistics' empirical p-values"]),
])
def test_each_subcommand_help_prints_its_description(command, phrases, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per paragraph, so no phrase is wrapped
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert all(phrase in out for phrase in phrases)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_writes_each_cell_of_a_tuple_record_by_type(fmt, capsys):
    columns = ("f64", "float", "int", "bool", "text", "missing")
    record = (np.float64(0.123456789), 2.5e-07, 7, True, "MAX: a, b", None)
    _emit(columns, iter([record]), argparse.Namespace(format=fmt, out=None), {"seed": None, "b": 3})
    out = capsys.readouterr().out
    if fmt == "csv":
        assert out == ("# seed=\n# b=3\n"
                       "f64,float,int,bool,text,missing\n"
                       '0.123457,2.5e-07,7,True,"MAX: a, b",\n')
    else:
        payload = json.loads(out)
        assert payload == {"provenance": {"seed": None, "b": 3},
                           "results": [{"f64": 0.123456789, "float": 2.5e-07, "int": 7, "bool": True,
                                        "text": "MAX: a, b", "missing": None}]}
        assert list(payload["results"][0]) == list(columns)
        # 7 == 7.0 and True == 1 in Python, so pin the printed forms too
        assert '"int": 7,' in out and '"bool": true,' in out and '"missing": null' in out


def test_analyze_reports_a_non_finite_field_and_still_prints_the_other_tables():
    for field in ("inf", "nan", "1e400"):
        code, out, err = run_cli(["analyze", "--table", f"1 2 3 4 5 {field}",
                                  "--table", "10 20 30 30 20 10"])
        assert code == 1
        assert err == f"analyze: arg0: field 6 ({field!r}) is not a finite integer count\n"
        assert "\narg1,MAX3," in out and "\narg0," not in out


def test_analyze_reports_a_table_total_past_the_count_bound_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["analyze", "--table", "1e308 1e308 0 1 1 1",
                                  "--table", "10 20 30 30 20 10"])
    assert code == 1
    assert err == "analyze: arg0: table total inf is not below 2**51 (2,251,799,813,685,248)\n"
    assert "\narg1,MAX3," in out and "\narg0," not in out


def test_analyze_tables_hash_names_the_raw_tables_in_order_however_they_are_given(tmp_path, monkeypatch):
    records = ["10 20 30 30 20 10", "3 0 5 9 2 0"]
    (tmp_path / "tables.txt").write_text("# two tables\n" + "\n".join(records) + "\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(records)))
    runs = [["--table", records[0], "--table", records[1]],
            ["--input", str(tmp_path / "tables.txt"), "--correction", "on"],
            ["--table", records[0], "--input", "-", "--format", "json"]]
    hashes = [header_of(run_cli(["analyze", *argv])[1])["tables_hash"] for argv in runs]
    want = tables_hash(np.array([[10, 20, 30, 30, 20, 10], [3, 0, 5, 9, 2, 0]]))
    assert hashes == [want, want, tables_hash(np.array([[10, 20, 30, 30, 20, 10]] * 2 + [[3, 0, 5, 9, 2, 0]]))]
    swapped = header_of(run_cli(["analyze", "--table", records[1], "--table", records[0]])[1])["tables_hash"]
    assert swapped != want


def test_analyze_tables_hash_does_not_depend_on_how_a_zero_is_spelled():
    hashes = {header_of(run_cli(["analyze", "--table", text])[1])["tables_hash"]
              for text in ("0 5 5 5 5 5", "-0 5 5 5 5 5", "-0.0 5, 5, 5, 5, 5")}
    assert hashes == {tables_hash(np.array([[0, 5, 5, 5, 5, 5]]))}


def test_analyze_rejects_a_table_too_large_to_permute_before_any_output(tmp_path):
    code, out, err = run_cli(["analyze", "--table", "999999990 1 1 1 1 10", "--b-perm", "10", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == "trendmax analyze: permutation requires a total count below 1,000,000,000 (arg0)\n"
    # the error names the record, not its index in the batch: the comment, the unparsable line 3 and
    # the blank line 4 are left out, so line 5 is the batch's table 1
    path = tmp_path / "tables.txt"
    path.write_text("# tables\n10 20 30 30 20 10\n1 2 x 4 5 6\n\n600000000 0 0 600000000 0 1\n")
    code, out, err = run_cli(["analyze", "--input", str(path), "--b-perm", "10", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err.splitlines() == ["analyze: line3: field 3 ('x') is not a number",
                                "trendmax analyze: permutation requires a total count below 1,000,000,000 (line5)"]


@pytest.mark.parametrize("source", ["input", "stdin", "scenarios"])
def test_input_that_is_not_utf8_exits_2_with_one_line_naming_it(source, tmp_path, monkeypatch):
    if source == "scenarios":
        path = tmp_path / "pack.json"
        path.write_bytes(b'[{"id": "caf\xe9", "model": "null", "p": 0.3, "r": 250, "s": 250}]')
        argv, name, byte = ["criticals", "--scenarios", str(path), "--seed", "1", "--b-null", "100"], path, "0xe9"
    else:
        data = b"10 20 30 30 20 10\n1 2 3 \xff 5 6\n"
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            given, name = "-", "<stdin>"
        else:
            given = name = str(tmp_path / "tables.txt")
            Path(name).write_bytes(data)
        argv, byte = ["analyze", "--input", given], "0xff"
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"trendmax {argv[0]}: {name}: 'utf-8' codec can't decode byte {byte} in position ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("source", ["input", "stdin", "scenarios"])
def test_a_utf8_byte_order_mark_is_not_part_of_the_input(source, tmp_path, monkeypatch):
    if source == "scenarios":
        path = tmp_path / "pack.json"
        path.write_bytes(b"\xef\xbb\xbf" + (SCENARIOS / "null_hwe_250.json").read_bytes())
        argv = CASES["criticals_hwe_all"][:2] + [str(path)] + CASES["criticals_hwe_all"][3:]
        want = (GOLDEN / "criticals_hwe_all.txt").read_text(encoding="utf-8")
    else:
        data = b"\xef\xbb\xbf10 20 30 30 20 10\n"
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            given = "-"
        else:
            given = str(tmp_path / "tables.txt")
            Path(given).write_bytes(data)
        argv = ["analyze", "--input", given]
        want = run_cli(["analyze", "--table", "10 20 30 30 20 10"])[1].replace("arg0,", "line1,")
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert out == want


def test_csv_provenance_writes_a_missing_value_as_an_empty_value():
    code, out, err = run_cli(["analyze", "--table", "10 20 30 30 20 10"])
    assert code == 0, err
    assert "# seed=\n" in out and "None" not in out


def test_analyze_reports_correlations_on_a_table_without_heterozygotes():
    # n1 = 0: the plug-in correlations are exactly 1 and must not be rejected
    # as out of range by rounding (1 + 4e-16)
    code, out, err = run_cli(["analyze", "--table", "17 0 22 0 0 9"])
    assert code == 1, err  # CHI2_2DF is undefined on the only table
    rows = {row.split(",")[1]: row for row in out.splitlines() if row.startswith("arg0,")}
    assert "correlations" not in rows
    for name in ("rho_0_half", "rho_0_1", "rho_half_1"):
        assert rows[name] == f"arg0,{name},1,,,"
    assert rows["mert_certificate"] == "arg0,mert_certificate,true,,,"
    assert rows["advisory"].startswith("arg0,advisory,MERT:")
    assert rows["MERT"].startswith("arg0,MERT,2.46464,")


def test_correlation_columns_and_rows_are_the_fields_of_the_triple():
    code, out, err = run_cli(CASES["corr_stratified"])
    assert code == 0, err
    columns = next(line for line in out.splitlines() if not line.startswith("#")).split(",")
    assert tuple(columns[1:4]) == CorrelationTriple._fields
    code, out, err = run_cli(["analyze", "--table", "10 20 30 30 20 10"])
    assert code == 0, err
    names = [row[1] for row in out_rows(out) if row[1] not in DEFAULT_BATTERY]
    assert names == [*CorrelationTriple._fields, "mert_certificate", "advisory"]


def test_analyze_json_reports_the_correlations_error_that_csv_prints():
    argv = ["analyze", "--table", "10 20 0 20 10 0"]
    _, csv_out, _ = run_cli(argv)
    _, json_out, _ = run_cli(argv + ["--format", "json"])
    csv_errors = [row for row in out_rows(csv_out) if row[1] == "correlations"]
    json_errors = [r for r in json.loads(json_out)["results"] if r["statistic"] == "correlations"]
    assert len(csv_errors) == 1 and "zero-variance" in csv_errors[0][5]
    assert json_errors == [{"record": "arg0", "statistic": "correlations", "value": None,
                            "p_asymptotic": None, "p_permutation": None,
                            "error": csv_errors[0][5]}]


def is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def csv_cell(value) -> str:
    """The CSV cell that a JSON result value stands for."""
    if value is None:
        return ""
    return f"{value:.6g}" if isinstance(value, float) else str(value)


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_results_carry_exactly_the_csv_cells(case):
    argv = CASES[case][:-2] if CASES[case][-2:] == ["--format", "json"] else CASES[case]
    code, csv_out, err = run_cli(argv)
    assert code == 0, err
    code, json_out, err = run_cli(argv + ["--format", "json"])
    assert code == 0, err
    payload = json.loads(json_out)
    lines = csv_out.splitlines()
    assert [line for line in lines if line.startswith("#")] == [
        f"# {key}={'' if value is None else value}" for key, value in payload["provenance"].items()]
    columns, *rows = csv.reader(line for line in lines if not line.startswith("#"))
    assert len(payload["results"]) == len(rows)
    for result, row in zip(payload["results"], rows):
        assert list(result) == columns
        assert [csv_cell(value) for value in result.values()] == row
        # numbers are JSON numbers, never numeric strings
        assert not any(isinstance(value, str) and is_number(value) for value in result.values())


def out_rows(text: str) -> list[list[str]]:
    """CSV rows of a CLI output, without the provenance header and the column row."""
    return list(csv.reader([line for line in text.splitlines() if not line.startswith("#")][1:]))


# the options that say where input comes from or where output goes; no header records them
IO_OPTIONS = {"scenarios", "table", "input", "format", "out"}


def header_of(text: str) -> dict[str, str]:
    """A golden's provenance as header text: the ``# key=value`` lines, or the JSON object."""
    if text.startswith("{"):
        return {key: "" if value is None else str(value)
                for key, value in json.loads(text)["provenance"].items()}
    return dict(line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# "))


def requested_tables(requested) -> list:
    """The tables an ``analyze`` request reads, parsed here: its --table records, then its --input lines."""
    lines = [*(requested.table or ())]
    if requested.input:
        lines += [line.strip() for line in Path(requested.input).read_text(encoding="utf-8").splitlines()]
    return [parse_table_record(line) for line in lines if line and not line.startswith("#")]


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_golden_reruns_from_its_own_header(case):
    golden = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    header = header_of(golden)
    assert header.pop("version") == __version__
    command = header.pop("command")
    parser = build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = subparsers.choices[command]._actions
    options = [a for a in actions if a.default is not argparse.SUPPRESS and a.dest not in IO_OPTIONS]
    argv = [command]
    requested = parser.parse_args(CASES[case])
    if any(a.dest == "scenarios" for a in actions):
        packs = {scenario_hash(load_scenarios(path)): path for path in SCENARIOS.glob("*.json")}
        argv += ["--scenarios", str(packs[header.pop("scenario_hash")])]
    if any(a.dest == "table" for a in actions):  # the hash of the tables the case reads, in order
        tables = requested_tables(requested)
        assert header.pop("tables_hash") == tables_hash(np.array(tables))
    # every option is recorded, in parser order, so none can be left out
    assert list(header) == [a.dest for a in options]
    for action in options:
        if header[action.dest] != "":
            argv += [action.option_strings[0], header[action.dest]]
    for table in getattr(requested, "table", None) or ():
        argv += ["--table", table]
    argv += ["--input", requested.input] if getattr(requested, "input", None) else []
    argv += ["--format", requested.format]
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert out == golden


@pytest.mark.parametrize("argv, lines", [
    (["crosstab", "--scenarios", str(SCENARIOS / "crosstab_additive.json"), "--stat-a", "MAX3",
      "--stat-b", "Z1", "--seed", "1", "--b-null", "1000", "--b-reps", "200", "--bins", "0.05\n,0.5"],
     ["# bins=0.05,0.5"]),
    (["analyze", "--table", "10 20 30 30 20 10", "--battery", " MAX3 ,\nMAX[0:0.5:1]\n"],
     ["# battery=MAX3,MAX[0:0.5:1]"]),
], ids=["crosstab", "analyze"])
def test_a_line_break_in_a_flag_value_stays_inside_its_header_line(argv, lines):
    code, out, err = run_cli(argv)
    assert code == 0, err
    text = out.splitlines()
    n_header = next(i for i, line in enumerate(text) if not line.startswith("# "))
    # a CSV reader takes the first line without "# " for the column row
    assert text[n_header].split(",")[0] in ("scenario", "record")
    assert all(line in text[:n_header] for line in lines)


def test_padded_crosstab_statistic_names_print_the_golden():
    # --stat-a and --stat-b are stripped, as each --battery name is, and so is the header
    argv = list(CASES["crosstab_max3_maxgrid"])
    argv[argv.index("--stat-a") + 1] = " MAX3 "
    argv[argv.index("--stat-b") + 1] = "MAXGRID\n"
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert out == (GOLDEN / "crosstab_max3_maxgrid.txt").read_text(encoding="utf-8")


@pytest.mark.xfail(strict=True, reason="power scores a null's size rows on the tables that set its "
                   "thresholds: the null run and the power run both spawn their chunk streams from --seed")
def test_power_scores_a_null_apart_from_the_sample_that_set_its_thresholds(tmp_path, monkeypatch):
    import trendmax.montecarlo

    pack = tmp_path / "one_null.json"
    pack.write_text('[{"id": "null", "model": "null", "p": 0.3, "r": 250, "s": 250}]')
    filled = []
    original = trendmax.montecarlo._sample_chunk

    def recording(strata, rng, out):
        original(strata, rng, out)
        filled.append(out.copy())

    monkeypatch.setattr(trendmax.montecarlo, "_sample_chunk", recording)
    code, out, err = run_cli(["power", "--scenarios", str(pack), "--seed", "3", "--battery", "Z0",
                              "--b-null", "20000", "--b-power", "10000"])
    assert code == 0, err
    # the null run's two chunks are drawn before the power run's one
    *null, power = filled
    assert len(null) == 2
    assert not any(np.array_equal(power, chunk) for chunk in null)


def regenerate() -> None:
    for case, argv in sorted(CASES.items()):
        code, out, err = run_cli(argv)
        if code != 0:
            raise SystemExit(f"{case}: exit code {code}: {err}")
        (GOLDEN / f"{case}.txt").write_text(out, encoding="utf-8")
        print(f"wrote {case}")


if __name__ == "__main__":
    sys.exit(regenerate())
