"""The four benchmark workloads and the generator of the ``analyze`` input.

Each workload is one CLI request: the argument list handed to
``trendmax.cli.main`` and the number of tables that request simulates or
analyses. Paths are relative to the repository root.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# CLI defaults the workloads run at; the checks rely on them.
ALPHA = 0.05
B_NULL = 200_000
B_POWER = 10_000
B_REPS = 5_000

# analyze_perm: tables per input file and permutation replicates per
# statistic. 120 tables give about 3,100 one-row battery evaluations
# and a request of about the length of the others.
ANALYZE_TABLES = 120
ANALYZE_B_PERM = 1_000

# The seed whose outputs are stored under reference/.
REFERENCE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    scenarios: str | None  # scenario pack, relative to the repository root
    extra_args: tuple[str, ...]
    tables: int  # tables simulated or analysed per request
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="power_recadd",
            command="power",
            scenarios="scenarios/recadd_subfamily.json",
            extra_args=(),
            # 3 distinct nulls x B_NULL, plus 12 scenarios x B_POWER.
            tables=3 * B_NULL + 12 * B_POWER,
            why="the paper's power table: full battery, null reuse through the critical-value cache",
        ),
        Workload(
            name="criticals_stratified",
            command="criticals",
            scenarios="scenarios/null_stratified.json",
            extra_args=(),
            tables=6 * B_NULL,
            why="sampler-bound: six two-stratum nulls x 200,000 tables and 78 quantiles",
        ),
        Workload(
            name="crosstab_maxgrid",
            command="crosstab",
            scenarios="scenarios/crosstab_additive.json",
            extra_args=("--stat-a", "MAX3", "--stat-b", "MAXGRID"),
            tables=B_NULL + B_REPS,
            why="trend-bound: 11-score grid and pvalue_crosstab, no classical or correlation kernels",
        ),
        Workload(
            name="analyze_perm",
            command="analyze",
            scenarios=None,
            extra_args=("--b-perm", str(ANALYZE_B_PERM)),
            tables=ANALYZE_TABLES,
            why="many one-row battery calls and permutation p-values on generated tables",
        ),
    )
}


def cli_args(workload: Workload, root: Path, seed: int, out: Path, input_path: Path | None) -> list[str]:
    """Argument list for ``trendmax.cli.main``."""
    args = [workload.command]
    if workload.scenarios is not None:
        args += ["--scenarios", str(root / workload.scenarios)]
    if input_path is not None:
        args += ["--input", str(input_path)]
    return args + list(workload.extra_args) + ["--seed", str(seed), "--out", str(out)]


# ---------------------------------------------------------------------------
# analyze_perm input
# ---------------------------------------------------------------------------

def _hwe(p: float) -> np.ndarray:
    q = 1.0 - p
    return np.array([q * q, 2 * p * q, p * p])


def analyze_tables(seed: int, count: int = ANALYZE_TABLES) -> list[tuple[int, ...]]:
    """Genotype tables (r0, r1, r2, s0, s1, s2) drawn from ``seed``.

    Half the tables have r = s, half have 2-5 controls per case; sizes
    run from tens to hundreds and the minor allele frequency from 0.05
    to 0.5. Half are null; the rest have a recessive, additive or
    dominant genotype relative risk between 1.5 and 3. Counts are raw
    (no continuity correction), so zero cells occur.
    """
    rng = np.random.default_rng([seed, 0xA7A1])
    tables = []
    for _ in range(count):
        if rng.random() < 0.5:
            r = s = int(rng.integers(20, 401))
        else:
            r = int(rng.integers(10, 101))
            s = int(round(r * rng.uniform(2.0, 5.0)))
        g = _hwe(float(rng.uniform(0.05, 0.5)))
        case = g
        if rng.random() >= 0.5:
            gamma = float(rng.uniform(1.5, 3.0))
            risk = (
                (1.0, 1.0, gamma),  # recessive
                (1.0, (1.0 + gamma) / 2.0, gamma),  # additive
                (1.0, gamma, gamma),  # dominant
            )[int(rng.integers(0, 3))]
            case = g * np.array(risk)
            case = case / case.sum()
        cells = (*rng.multinomial(r, case), *rng.multinomial(s, g))
        tables.append(tuple(int(c) for c in cells))
    return tables


def write_analyze_input(path: Path, seed: int) -> dict[str, tuple[int, ...]]:
    """Write the analyze input for ``seed``; returns {record label: cells}.

    Labels follow the CLI's ``line<number>`` convention; line 1 is a
    comment naming the seed.
    """
    tables = analyze_tables(seed)
    lines = [f"# analyze_perm input, seed {seed}"]
    lines += [" ".join(str(c) for c in t) for t in tables]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {f"line{i + 2}": t for i, t in enumerate(tables)}
