"""The correctness gate passes the stored outputs and rejects perturbed ones."""

import re
from pathlib import Path

import pytest

from checks import (
    Report,
    check_output,
    compare_reference,
    load_reference,
    load_scenarios,
)
from workloads import REFERENCE_SEED, WORKLOADS, write_analyze_input

ROOT = Path(__file__).resolve().parents[2]


def _context(name, tmp_path):
    workload = WORKLOADS[name]
    if workload.scenarios:
        return {"scenarios": load_scenarios(ROOT, workload.scenarios)}
    return {"tables": write_analyze_input(tmp_path / "in.txt", REFERENCE_SEED)}


def _check(name, text, tmp_path) -> Report:
    report = check_output(name, text, REFERENCE_SEED, **_context(name, tmp_path))
    compare_reference(name, text, load_reference(name), report)
    return report


def _replace_field(text, prefix, column, new):
    """Replace CSV field ``column`` of the line starting with ``prefix``."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            fields = line.rstrip("\n").split(",")
            fields[column] = new(fields[column])
            lines[i] = ",".join(fields) + "\n"
            return "".join(lines)
    raise AssertionError(f"no line starts with {prefix!r}")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_output_passes(name, tmp_path):
    report = _check(name, load_reference(name), tmp_path)
    assert report.failed == set(), report.notes
    assert len(report.expected) > 0


def test_statistical_check_rejects_a_raised_null_size(tmp_path):
    text = _replace_field(load_reference("power_recadd"), "null_p30,Z_HALF,", 3, lambda v: f"{float(v) + 0.02:.6g}")
    report = check_output("power_recadd", text, REFERENCE_SEED, **_context("power_recadd", tmp_path))
    assert ("null_p30", "Z_HALF") in report.failed


def test_statistical_check_rejects_a_shifted_threshold(tmp_path):
    ctx = _context("criticals_stratified", tmp_path)
    raised = _replace_field(load_reference("criticals_stratified"), "null_mix_20_50_large,Z1,", 2,
                            lambda v: f"{float(v) + 0.1:.6g}")
    assert ("null_mix_20_50_large", "Z1") in check_output("criticals_stratified", raised, REFERENCE_SEED, **ctx).failed
    lowered = _replace_field(load_reference("criticals_stratified"), "null_mix_20_50_large,MAX3,", 2,
                             lambda v: f"{float(v) * 0.9:.6g}")
    assert ("null_mix_20_50_large", "MAX3") in check_output("criticals_stratified", lowered, REFERENCE_SEED, **ctx).failed


def test_reference_check_rejects_a_small_change(tmp_path):
    text = _replace_field(load_reference("criticals_stratified"), "null_mix_10_40_small,MERT,", 2,
                          lambda v: f"{float(v) * 1.001:.6g}")
    report = _check("criticals_stratified", text, tmp_path)
    assert report.failed == {("null_mix_10_40_small", "MERT")}


def test_crosstab_check_rejects_lost_replicates(tmp_path):
    text = _replace_field(load_reference("crosstab_maxgrid"), 'add_p30_calibrated,"[0,0.01)","[0,0.01)"', -1,
                          lambda v: str(int(v) - 10))
    report = check_output("crosstab_maxgrid", text, REFERENCE_SEED, **_context("crosstab_maxgrid", tmp_path))
    assert len(report.failed) == 16


def test_analyze_check_rejects_a_wrong_value_and_a_filled_undefined_cell(tmp_path):
    ctx = _context("analyze_perm", tmp_path)
    text = load_reference("analyze_perm")
    wrong = _replace_field(text, "line2,Z1,", 2, lambda v: f"{float(v) * 1.01:.6g}")
    assert ("line2", "Z1") in check_output("analyze_perm", wrong, REFERENCE_SEED, **ctx).failed
    undefined = re.search(r"^(line\d+,\w+),,", text, re.M).group(1)
    filled = _replace_field(text, undefined + ",", 2, lambda v: "1.5")
    record, stat = undefined.split(",")
    assert (record, stat) in check_output("analyze_perm", filled, REFERENCE_SEED, **ctx).failed


def test_failed_request_fails_every_row(tmp_path):
    report = check_output("power_recadd", "", REFERENCE_SEED, **_context("power_recadd", tmp_path))
    assert len(report.failed) == len(report.expected) == 12 * 13
