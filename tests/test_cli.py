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

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as spstats

from trendmax.battery import ALL_STATISTICS
from trendmax.cli import _asymptotic_pvalue, main

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
        "--sidedness", "one", "--correction", "on", "--battery", ALL,
        "--grid", "0,0.25,0.5,0.75,1", "--format", "json",
    ],
    "criticals_hwe_all": [
        "criticals", "--scenarios", str(SCENARIOS / "null_hwe_250.json"), "--seed", "3",
        "--b-null", "2000", "--battery", ALL,
    ],
    "criticals_stratified_json": [
        "criticals", "--scenarios", str(SCENARIOS / "null_stratified.json"), "--seed", "3",
        "--b-null", "2000", "--format", "json",
    ],
    "criticals_normal_approx": [
        "criticals", "--scenarios", str(SCENARIOS / "null_hwe_unbalanced.json"), "--seed", "3",
        "--b-null", "2000", "--normal-approx",
    ],
    "power_recadd": [
        "power", "--scenarios", str(SCENARIOS / "recadd_subfamily.json"), "--seed", "3",
        "--b-null", "2000", "--b-power", "500",
    ],
    "power_maxgrid_json": [
        "power", "--scenarios", str(SCENARIOS / "crosstab_additive.json"), "--seed", "4",
        "--b-null", "2000", "--b-power", "500", "--battery", "Z0,Z_HALF,Z1,MERT,MAX3,MAXGRID",
        "--grid", "0,0.2,0.4,0.5,0.6,0.8,1", "--format", "json",
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


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``src/`` on the path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_stats_out():
    proc = run_python("import sys, trendmax.cli; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("two_sided", [True, False])
def test_asymptotic_pvalue_matches_scipy_stats(two_sided):
    normal = ("Z0", "Z_HALF", "Z1", "MERT", "MERT_REC_ADD")
    for x in np.linspace(-12.0, 12.0, 481):
        want = 2.0 * spstats.norm.sf(abs(x)) if two_sided else spstats.norm.sf(x)
        for name in normal:
            assert _asymptotic_pvalue(name, x, two_sided) == want
    for x in np.linspace(0.0, 120.0, 481):
        assert _asymptotic_pvalue("CHI2_2DF", x, two_sided) == spstats.chi2.sf(x, df=2)
        for name in ("AA", "HWD"):
            assert _asymptotic_pvalue(name, x, two_sided) == spstats.chi2.sf(x, df=1)
    for name in ("MAX2", "MAX2_REC_ADD", "MAX3", "MAXGRID", "T_P", "T_MAX"):
        assert _asymptotic_pvalue(name, 2.0, two_sided) is None


def test_negative_b_perm_is_rejected_before_reading_tables(tmp_path):
    missing = tmp_path / "missing.txt"
    code, out, err = run_cli(["analyze", "--input", str(missing), "--b-perm", "-5", "--seed", "7"])
    assert code == 2
    assert out == ""
    assert "--b-perm" in err and "-5" in err


def test_analyze_input_file_is_closed():
    argv = CASES["analyze_perm"]
    proc = run_python(f"import sys; from trendmax.cli import main; sys.exit(main({argv!r}))",
                      "-W", "error::ResourceWarning")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == (GOLDEN / "analyze_perm.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, flag", [
    (["analyze", "--table", "10 20 30 30 20 10", "--battery", "MAXGRID", "--grid", "0,abc"], "--grid"),
    (CASES["power_maxgrid_json"][:-4] + ["--grid", "0,0.5,x"], "--grid"),
    (CASES["crosstab_chi2_tmax_json"][:-4] + ["--bins", "0.05,x"], "--bins"),
])
def test_unparsable_numbers_name_their_flag(argv, flag):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("grid", ["0,1.5", "0,nan", "-0.5,1", "0,inf"])
@pytest.mark.parametrize("case", ["analyze_one_sided_json", "crosstab_max3_maxgrid"])
def test_grid_scores_outside_unit_interval_are_an_error(case, grid):
    code, out, err = run_cli(CASES[case] + [f"--grid={grid}"])
    assert code == 2
    assert out == ""
    assert "grid scores must lie in [0, 1]" in err


def test_analyze_evaluates_the_observed_battery_once_per_table(monkeypatch):
    import trendmax.cli
    import trendmax.montecarlo

    calls = []

    def counting(original):
        def wrapper(cells, *args, **kwargs):
            calls.append(len(np.atleast_2d(cells)))
            return original(cells, *args, **kwargs)
        return wrapper

    for module in (trendmax.cli, trendmax.montecarlo):
        monkeypatch.setattr(module, "evaluate_battery", counting(module.evaluate_battery))
    code, out, err = run_cli(CASES["analyze_perm"])
    assert code == 0, err
    n_tables = sum(1 for line in (GOLDEN / "tables.txt").read_text().splitlines()
                   if line.strip() and not line.startswith("#"))
    # one observed (one-row) call and at most one permuted batch per table
    assert calls.count(1) == n_tables
    assert len(calls) <= 2 * n_tables


def regenerate() -> None:
    for case, argv in sorted(CASES.items()):
        code, out, err = run_cli(argv)
        if code != 0:
            raise SystemExit(f"{case}: exit code {code}: {err}")
        (GOLDEN / f"{case}.txt").write_text(out, encoding="utf-8")
        print(f"wrote {case}")


if __name__ == "__main__":
    sys.exit(regenerate())
