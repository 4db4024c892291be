"""Correctness checks on the CLI output of one request.

Every request is checked; a row fails when it is missing or fails any
check, and every expected row fails when the request exits non-zero or
raises. Three kinds of check apply:

* reference: at ``REFERENCE_SEED`` the output must match the stored
  output of the same request (``reference/``). Numbers are compared
  with a relative tolerance of 1e-5, one unit in the sixth significant
  digit the CLI prints; Monte Carlo rates may also differ by 2/B, crosstab
  counts by 2 and permutation p-values by 2/(B+1), so a change that
  moves a single replicate across a threshold still passes.
* statistical, for any seed: null sizes and null thresholds agree with
  their known values within Monte Carlo error (see the constants below).
* structural, for any seed: the row set, which cells are undefined,
  exact relations between statistics, and the analyze values against an
  independent scalar implementation.

This module does not import ``trendmax``.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

from workloads import ALPHA, ANALYZE_B_PERM, B_NULL, B_POWER, B_REPS

# The CLI's default battery at the commit the benchmark was defined.
BATTERY = (
    "Z0", "Z_HALF", "Z1", "MERT", "MERT_REC_ADD", "MAX2", "MAX2_REC_ADD",
    "MAX3", "CHI2_2DF", "AA", "HWD", "T_P", "T_MAX",
)
CORRELATION_ROWS = ("rho_0_half", "rho_0_1", "rho_half_1", "mert_certificate", "advisory")
TREND_SCORES = {"Z0": 0.0, "Z_HALF": 0.5, "Z1": 1.0}
Z_CRIT = 1.959963984540054  # upper alpha/2 normal quantile, alpha = 0.05

# Null sizes of discrete statistics fall below alpha by the mass of the
# atom at the threshold; at p = 0.1 the recessive-type statistics lose
# about 0.008. Sizes may therefore sit this much below alpha - 4 SE.
SIZE_DISCRETENESS = 0.01
# With one case share in every stratum, a stratified null shrinks the
# variance of Z_x to within-strata / pooled score variance, so the
# threshold is Z_CRIT * sigma_x. The +1/2 correction pulls simulated
# thresholds below that, and a discrete statistic's threshold lands on an
# atom: over seeds 100-123 the lowest reads 0.070 below (Z_0 on
# null_mix_10_40_small, whose neighbouring atoms are 0.041 apart).
THRESHOLD_BIAS = 0.1
# Share of crosstab replicates where MAX3 and MAXGRID fall in the same
# p-value bin; they share Z_0, Z_1/2 and Z_1 (0.965 at this commit).
CROSSTAB_MIN_DIAGONAL = 0.9

REL_TOL = 1e-5
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_output(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Provenance header and data rows of the CLI's CSV output."""
    header: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            header[key] = value
        elif line:
            body.append(line)
    return header, list(csv.DictReader(body))


def _num(text: str | None) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _close(a: float | None, b: float | None, abs_tol: float = 1e-12) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


class Report:
    """Expected rows of one request and the ones that failed."""

    def __init__(self, expected):
        self.expected = list(expected)
        self.failed: set = set()
        self.notes: list[str] = []

    def fail(self, key, why: str) -> None:
        if key not in self.failed and len(self.notes) < 20:
            self.notes.append(f"{key}: {why}")
        self.failed.add(key)

    def fail_all(self, why: str) -> None:
        for key in self.expected:
            self.fail(key, why)


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def _index(report: Report, rows, key_of) -> dict:
    present = {}
    for row in rows:
        try:
            present[key_of(row)] = row
        except KeyError:
            continue
    for key in report.expected:
        if key not in present:
            report.fail(key, "missing")
    return present


def check_power(text: str, scenarios: list[dict], seed: int) -> Report:
    report = Report((s["id"], stat) for s in scenarios for stat in BATTERY)
    _, rows = parse_output(text)
    rows_by_key = _index(report, rows, lambda r: (r["scenario"], r["statistic"]))
    null_ids = {s["id"] for s in scenarios if s["model"] == "null"}
    size_se = math.sqrt(ALPHA * (1 - ALPHA) / B_POWER)
    for key in report.expected:
        row = rows_by_key.get(key)
        if row is None:
            continue
        rate, se = _num(row.get("rate")), _num(row.get("se"))
        if rate is None or se is None or not 0.0 <= rate <= 1.0:
            report.fail(key, f"rate {row.get('rate')!r} / se {row.get('se')!r} not a rate")
            continue
        if not _close(se, math.sqrt(rate * (1 - rate) / B_POWER), 1e-7):
            report.fail(key, f"se {se} does not match rate {rate}")
        if row.get("b") != str(B_POWER) or row.get("seed") != str(seed):
            report.fail(key, "wrong b or seed column")
        is_null = key[0] in null_ids
        if row.get("metric") != ("size" if is_null else "power"):
            report.fail(key, f"metric {row.get('metric')!r}")
        if is_null and not ALPHA - 4 * size_se - SIZE_DISCRETENESS <= rate <= ALPHA + 4 * size_se:
            report.fail(key, f"null size {rate} outside alpha +- 4 SE")
    return report


def stratified_sigma(scenario: dict, x: float) -> float:
    """Null standard deviation of Z_x under a two-stratum HWE mixture."""
    weights, means, variances = [], [], []
    for p, n_k in ((scenario["pA"], scenario["R1"] + scenario["S1"]),
                   (scenario["pB"], scenario["R2"] + scenario["S2"])):
        q = 1.0 - p
        g = (q * q, 2 * p * q, p * p)
        score = (0.0, x, 1.0)
        mean = sum(gi * si for gi, si in zip(g, score))
        weights.append(n_k)
        means.append(mean)
        variances.append(sum(gi * si * si for gi, si in zip(g, score)) - mean * mean)
    total = sum(weights)
    w = [n_k / total for n_k in weights]
    within = sum(wk * v for wk, v in zip(w, variances))
    mbar = sum(wk * m for wk, m in zip(w, means))
    between = sum(wk * (m - mbar) ** 2 for wk, m in zip(w, means))
    return math.sqrt(within / (within + between))


# Pointwise dominance between decision values is kept by every order
# statistic, so the thresholds inherit it exactly.
DOMINATES = {
    "MAX2": ("Z0", "Z1"),
    "MAX2_REC_ADD": ("Z0", "Z_HALF"),
    "MAX3": ("Z0", "Z_HALF", "Z1", "MAX2", "MAX2_REC_ADD"),
    "T_MAX": ("AA", "HWD"),
}


def check_criticals(text: str, scenarios: list[dict], seed: int) -> Report:
    report = Report((s["id"], stat) for s in scenarios for stat in BATTERY)
    _, rows = parse_output(text)
    rows_by_key = _index(report, rows, lambda r: (r["scenario"], r["statistic"]))
    threshold = {}
    for key in report.expected:
        row = rows_by_key.get(key)
        if row is None:
            continue
        value = _num(row.get("threshold"))
        if value is None or not math.isfinite(value) or value <= 0:
            report.fail(key, f"threshold {row.get('threshold')!r}")
            continue
        if row.get("b") != str(B_NULL) or row.get("seed") != str(seed):
            report.fail(key, "wrong b or seed column")
        threshold[key] = value
    # SE of the upper-alpha quantile of |Z|: sqrt(a(1-a)/B) / density.
    density = 2 * math.exp(-Z_CRIT**2 / 2) / math.sqrt(2 * math.pi)
    quantile_se = math.sqrt(ALPHA * (1 - ALPHA) / B_NULL) / density
    for scenario in scenarios:
        sid = scenario["id"]
        for stat, x in TREND_SCORES.items():
            value = threshold.get((sid, stat))
            if value is None:
                continue
            expected = Z_CRIT * stratified_sigma(scenario, x)
            if not expected - 4 * quantile_se - THRESHOLD_BIAS <= value <= expected + 4 * quantile_se:
                report.fail((sid, stat), f"threshold {value} far from analytic {expected:.4f}")
        for big, smalls in DOMINATES.items():
            for small in smalls:
                a, b = threshold.get((sid, big)), threshold.get((sid, small))
                if a is not None and b is not None and a < b:
                    report.fail((sid, big), f"threshold below that of {small}")
    return report


def _bin_labels() -> list[str]:
    edges = (0.0, 0.01, 0.05, 0.1, 1.0)
    return [f"[{lo:g},{hi:g})" if hi != 1.0 else f"[{lo:g},1]" for lo, hi in zip(edges[:-1], edges[1:])]


def check_crosstab(text: str, scenarios: list[dict], seed: int) -> Report:
    labels = _bin_labels()
    report = Report((s["id"], a, b) for s in scenarios for a in labels for b in labels)
    header, rows = parse_output(text)
    rows_by_key = _index(report, rows, lambda r: (r["scenario"], r["row_bin"], r["col_bin"]))
    if header.get("seed") != str(seed) or header.get("stat_a") != "MAX3" or header.get("stat_b") != "MAXGRID":
        report.fail_all("provenance header does not match the request")
    for scenario in scenarios:
        keys = [(scenario["id"], a, b) for a in labels for b in labels]
        counts = {k: _num(rows_by_key[k]["count"]) for k in keys if k in rows_by_key}
        if any(c is None or c < 0 or c != int(c) for c in counts.values()):
            for k in keys:
                report.fail(k, "count is not a nonnegative integer")
            continue
        if len(counts) == len(keys):
            total = sum(counts.values())
            diagonal = sum(counts[(scenario["id"], a, a)] for a in labels)
            if total != B_REPS:
                for k in keys:
                    report.fail(k, f"counts sum to {total}, not {B_REPS}")
            elif diagonal / total < CROSSTAB_MIN_DIAGONAL:
                for k in keys:
                    report.fail(k, f"MAX3 and MAXGRID agree on only {diagonal / total:.3f}")
    return report


# ---------------------------------------------------------------------------
# analyze: an independent scalar implementation of the battery
# ---------------------------------------------------------------------------

def _trend(cells, x: float) -> float | None:
    r0, r1, r2, s0, s1, s2 = cells
    r, s = r0 + r1 + r2, s0 + s1 + s2
    n = r + s
    score = (0.0, x, 1.0)
    num = sum(xi * (s * ri - r * si) for xi, ri, si in zip(score, (r0, r1, r2), (s0, s1, s2)))
    nn = (r0 + s0, r1 + s1, r2 + s2)
    var = r * s * (n * sum(xi * xi * ni for xi, ni in zip(score, nn)) - sum(xi * ni for xi, ni in zip(score, nn)) ** 2)
    return math.sqrt(n) * num / math.sqrt(var) if var > 0 else None


def _correlations(cells) -> tuple[float, float, float] | None:
    r0, r1, r2, s0, s1, s2 = cells
    n = sum(cells)
    p0, p1, p2 = (r0 + s0) / n, (r1 + s1) / n, (r2 + s2) / n
    if not (0 < p0 < 1 and 0 < p2 < 1):
        return None
    mid = (p1 + 2 * p2) * p0 + (p1 + 2 * p0) * p2
    d0, d2, dm = math.sqrt(p0 * (1 - p0)), math.sqrt(p2 * (1 - p2)), math.sqrt(mid)
    return (p0 * (p1 + 2 * p2) / (d0 * dm), p0 * p2 / (d0 * d2), p2 * (p1 + 2 * p0) / (d2 * dm))


def _chi2df(cells) -> float | None:
    rows = (cells[0:3], cells[3:6])
    cols = [cells[i] + cells[i + 3] for i in range(3)]
    n = sum(cells)
    if min(cols) <= 0:
        return None
    stat = 0.0
    for row in rows:
        total = sum(row)
        for obs, col in zip(row, cols):
            e = total * col / n
            stat += (obs - e) ** 2 / e
    return stat


def _allele(cells) -> float | None:
    r0, r1, r2, s0, s1, s2 = cells
    # 2x2 table of allele counts: cases (N, M), controls (N, M).
    a, b, c, d = 2 * r0 + r1, r1 + 2 * r2, 2 * s0 + s1, s1 + 2 * s2
    rows, cols = (a + b, c + d), (a + c, b + d)
    if min(*rows, *cols) <= 0:
        return None
    return (a + b + c + d) * (a * d - b * c) ** 2 / (rows[0] * rows[1] * cols[0] * cols[1])


def _hwd(case) -> float | None:
    r = sum(case)
    p = (case[1] + 2 * case[2]) / (2 * r)
    if not 0 < p < 1:
        return None
    q = 1 - p
    expect = (r * q * q, 2 * r * p * q, r * p * p)
    return sum((o - e) ** 2 / e for o, e in zip(case, expect))


def battery_oracle(cells) -> dict[str, float | None]:
    """Two-sided decision value of each battery statistic; None if undefined."""
    z = {name: _trend(cells, x) for name, x in TREND_SCORES.items()}
    rho = _correlations(cells)
    out: dict[str, float | None] = {name: abs(v) if v is not None else None for name, v in z.items()}

    def combine(fn, *parts):
        return None if any(p is None for p in parts) else fn(*parts)

    r0h, r01 = (rho[0], rho[1]) if rho else (None, None)
    out["MERT"] = combine(lambda a, b, c: abs((a + b) / math.sqrt(2 * (1 + c))), z["Z0"], z["Z1"], r01)
    out["MERT_REC_ADD"] = combine(lambda a, b, c: abs((a + b) / math.sqrt(2 * (1 + c))), z["Z0"], z["Z_HALF"], r0h)
    out["MAX2"] = combine(max, out["Z0"], out["Z1"])
    out["MAX2_REC_ADD"] = combine(max, out["Z0"], out["Z_HALF"])
    out["MAX3"] = combine(max, out["Z0"], out["Z_HALF"], out["Z1"])
    out["CHI2_2DF"] = _chi2df(cells)
    out["AA"] = _allele(cells)
    out["HWD"] = _hwd(cells[0:3])
    out["T_P"] = combine(lambda a, b: a * b, out["AA"], out["HWD"])
    out["T_MAX"] = combine(max, out["AA"], out["HWD"])
    return out


def _asymptotic_p(stat: str, value: float) -> float | None:
    if stat in ("Z0", "Z_HALF", "Z1", "MERT", "MERT_REC_ADD"):
        return math.erfc(value / math.sqrt(2))
    if stat == "CHI2_2DF":
        return math.exp(-value / 2)
    if stat in ("AA", "HWD"):
        return math.erfc(math.sqrt(value / 2))
    return None


def _p_matches(stat: str, printed_value: float, printed_p: float) -> bool:
    """Printed p within what the printed (rounded) value allows."""
    ends = [_asymptotic_p(stat, printed_value * (1 + d)) for d in (-REL_TOL, REL_TOL)]
    lo, hi = min(ends), max(ends)
    return lo * (1 - REL_TOL) - 1e-300 <= printed_p <= hi * (1 + REL_TOL) + 1e-300


def analyze_expected(tables: dict[str, tuple[int, ...]]) -> list[tuple[str, str]]:
    keys = []
    for label, cells in tables.items():
        keys += [(label, stat) for stat in BATTERY]
        extras = CORRELATION_ROWS if _correlations(cells) else ("correlations",)
        keys += [(label, name) for name in extras]
    return keys


def check_analyze(text: str, tables: dict[str, tuple[int, ...]], seed: int) -> Report:
    report = Report(analyze_expected(tables))
    header, rows = parse_output(text)
    rows_by_key = _index(report, rows, lambda r: (r["record"], r["statistic"]))
    if header.get("seed") != str(seed) or header.get("b_perm") != str(ANALYZE_B_PERM):
        report.fail_all("provenance header does not match the request")
    b1 = ANALYZE_B_PERM + 1
    for label, cells in tables.items():
        oracle = battery_oracle(cells)
        for stat in BATTERY:
            key = (label, stat)
            row = rows_by_key.get(key)
            if row is None:
                continue
            value, want = _num(row["value"]), oracle[stat]
            if want is None:
                if row["value"] or row["p_asymptotic"] or row["p_permutation"] or row["error"] != "undefined on this table":
                    report.fail(key, "expected an undefined cell")
                continue
            if value is None or not math.isclose(value, want, rel_tol=2 * REL_TOL, abs_tol=1e-9):
                report.fail(key, f"value {row['value']!r}, oracle {want:.6g}")
                continue
            p_asym = _num(row["p_asymptotic"])
            if _asymptotic_p(stat, value) is None:
                if row["p_asymptotic"]:
                    report.fail(key, "p_asymptotic for a statistic without an asymptotic law")
            elif p_asym is None or not _p_matches(stat, value, p_asym):
                report.fail(key, f"p_asymptotic {row['p_asymptotic']!r} does not match value")
            p_perm = _num(row["p_permutation"])
            if p_perm is None or not 1 / b1 - 1e-9 <= p_perm <= 1.0 or abs(p_perm * b1 - round(p_perm * b1)) > 1e-3:
                report.fail(key, f"p_permutation {row['p_permutation']!r} is not k/{b1}")
            if row["error"]:
                report.fail(key, f"unexpected error {row['error']!r}")
        rho = _correlations(cells)
        if rho is None:
            row = rows_by_key.get((label, "correlations"))
            if row is not None and not row["error"]:
                report.fail((label, "correlations"), "expected a correlation error")
            continue
        for name, want in zip(CORRELATION_ROWS, rho):
            row = rows_by_key.get((label, name))
            if row is not None and not _close(_num(row["value"]), want, 1e-9):
                report.fail((label, name), f"{row['value']!r}, oracle {want:.6g}")
        margin = rho[0] + rho[2] - 1 - rho[1]
        row = rows_by_key.get((label, "mert_certificate"))
        if row is not None and abs(margin) > 1e-9 and row["value"] != str(margin >= 0).lower():
            report.fail((label, "mert_certificate"), f"{row['value']!r}, margin {margin:.3g}")
        row = rows_by_key.get((label, "advisory"))
        if row is not None and not row["value"].startswith("MERT:" if rho[1] >= 0.75 else "MAX:"):
            report.fail((label, "advisory"), f"{row['value']!r} for rho_0_1 {rho[1]:.4f}")
    return report


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

KEY_COLUMNS = {
    "power_recadd": ("scenario", "statistic"),
    "criticals_stratified": ("scenario", "statistic"),
    "crosstab_maxgrid": ("scenario", "row_bin", "col_bin"),
    "analyze_perm": ("record", "statistic"),
}
# Absolute slack per column on top of REL_TOL (see the module docstring).
ABS_TOL = {
    "rate": 2 / B_POWER,
    "se": 2 / B_POWER,
    "count": 2,
    "p_permutation": 2 / (ANALYZE_B_PERM + 1),
}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.csv.gz"


def load_reference(workload: str) -> str:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return fh.read()


def compare_reference(workload: str, text: str, reference: str, report: Report) -> None:
    """Fail every row that differs from the reference beyond tolerance."""
    key_cols = KEY_COLUMNS[workload]
    _, want_rows = parse_output(reference)
    _, got_rows = parse_output(text)
    got = {tuple(r.get(c) for c in key_cols): r for r in got_rows}
    for want in want_rows:
        key = tuple(want[c] for c in key_cols)
        row = got.get(key)
        if row is None:
            report.fail(key, "missing (reference)")
            continue
        for col, expected in want.items():
            actual = row.get(col)
            a, b = _num(actual), _num(expected)
            if a is not None and b is not None:
                ok = _close(a, b, ABS_TOL.get(col, 1e-12))
            else:
                ok = actual == expected
            if not ok:
                report.fail(key, f"{col} {actual!r} != reference {expected!r}")
                break


def load_scenarios(root: Path, relpath: str) -> list[dict]:
    return json.loads((root / relpath).read_text(encoding="utf-8"))


def check_output(workload: str, text: str, seed: int, *, scenarios=None, tables=None) -> Report:
    """Structural and statistical checks for any seed."""
    if workload == "power_recadd":
        return check_power(text, scenarios, seed)
    if workload == "criticals_stratified":
        return check_criticals(text, scenarios, seed)
    if workload == "crosstab_maxgrid":
        return check_crosstab(text, scenarios, seed)
    return check_analyze(text, tables, seed)
