"""Benchmark of the trendmax CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each request is one ``trendmax.cli.main`` call in a fresh interpreter
(``worker.py``), and the next starts only after it has ended: a closed
loop with one caller, one worker process at a time, one thread, and
``TRENDMAX_THREADS`` unset. The first request of every run uses
``REFERENCE_SEED`` and is compared with the stored reference output; it
also warms the file cache and is not timed. Timed requests then use
``--seed`` until ``--seconds`` have passed. Every output is checked
(``checks.py``).

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics; with ``--trace 1`` timed requests alternate between
untraced and traced, and the last line reports the per-layer metrics
from the traced ones. The line before it holds the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Report, check_output, compare_reference, load_reference, load_scenarios
from spans import LAYER_NAMES
from workloads import REFERENCE_SEED, WORKLOADS, Workload, cli_args, write_analyze_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# Timings are scaled to a machine on which worker.calibrate() takes this
# long (the median on the shared 2-vCPU VM the benchmark was defined on).
CALIB_REF_S = 0.065

# The run must end within 180 s: start no request after RUN_LIMIT_S.
RUN_LIMIT_S = 140.0
WORKER_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "tables_per_s": "tables/s",
    "request_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER_UNITS = {}
for _layer in LAYER_NAMES:
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"{_layer}.rows"] = "rows"
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "montecarlo.sample.strata_tables": "tables",
    "montecarlo.sample.bytes": "B_computed",
    "trend.values.bytes": "B_computed",
    "battery.eval.undefined": "count",
    "battery.eval.rows_per_call": "tables/call",
    "montecarlo.criticals.reuse": "scenarios/null",
    "montecarlo.permutation.repeat_frac": "fraction",
    "montecarlo.permutation.errors": "count",
    "trace.absent_layers": "count",
    "process.cpu_s": "s",
    "trace.overhead_frac": "fraction",
})


class Run:
    """Requests of one benchmark run and their checked outputs."""

    def __init__(self, workload: Workload, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.scenarios = load_scenarios(ROOT, workload.scenarios) if workload.scenarios else None
        self.inputs: dict[int, tuple[Path, dict]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.check_reference = True

    def _input(self, seed: int):
        if self.workload.name != "analyze_perm":
            return None, None
        if seed not in self.inputs:
            path = WORK / f"analyze_perm-{seed}.txt"
            self.inputs[seed] = (path, write_analyze_input(path, seed))
        return self.inputs[seed]

    def request(self, seed: int, trace: bool) -> dict:
        """One checked request; returns the worker's measurements."""
        name = self.workload.name
        input_path, tables = self._input(seed)
        out = WORK / f"{name}.out.csv"
        result = WORK / f"{name}.result.json"
        for path in (out, result):
            path.unlink(missing_ok=True)
        spec = {
            "argv": cli_args(self.workload, ROOT, seed, out, input_path),
            "trace": trace,
            "tables": self.workload.tables,
            "src": str(ROOT / "src"),
            "result": str(result),
        }
        env = {k: v for k, v in os.environ.items() if k != "TRENDMAX_THREADS"}
        env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        timeout = max(1.0, min(WORKER_TIMEOUT_S, self.deadline - time.perf_counter()))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
            )
            stderr, code = proc.stderr, proc.returncode
        except subprocess.TimeoutExpired:
            stderr, code = f"request timed out after {timeout:.0f} s", None
        request_s = time.perf_counter() - start

        measured = json.loads(result.read_text(encoding="utf-8")) if code == 0 and result.exists() else None
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        report = check_output(name, text, seed, scenarios=self.scenarios, tables=tables)
        if seed == REFERENCE_SEED and self.check_reference:
            compare_reference(name, text, load_reference(name), report)
        if measured is None:
            report.fail_all(f"worker failed: {stderr.strip()[-500:]}")
        elif measured["rc"] != 0 or measured["error"]:
            report.fail_all(f"exit code {measured['rc']}: {measured['error'] or stderr.strip()[-300:]}")
        self.account(report)
        return {"request_s": request_s, "text": text, "measured": measured, "stderr": stderr, "code": code}

    def account(self, report: Report) -> None:
        self.attempted += len(report.expected)
        self.failed += len(report.failed)
        self.notes += report.notes[: max(0, 20 - len(self.notes))]


def _median(values) -> float:
    return float(statistics.median(values))


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, run: Run, versions: dict, requests: int) -> dict:
    sources = sorted((ROOT / "src" / "trendmax").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "reference_seed": REFERENCE_SEED,
        "trace": args.trace,
        "requests": requests,
        "git_sha": _git_sha(ROOT),
        "src_sha256": digest.hexdigest()[:16],
        "src_trendmax_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "TRENDMAX_THREADS": "unset in the worker (1 thread)",
        **versions,
        "failures": run.notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    missing = [p for p in ("src/trendmax/cli.py", workload.scenarios) if p and not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: not a trendmax checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    started = time.perf_counter()
    run = Run(workload, started + RUN_LIMIT_S + 30.0)

    first = run.request(REFERENCE_SEED, trace=False)
    if first["measured"] is None:
        print(f"run.py: the first request failed:\n{first['stderr']}", file=sys.stderr)
        return 1

    trace = bool(args.trace)
    min_requests = 4 if trace else 3
    timed: list[tuple[bool, dict]] = []
    expected_text = None
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(timed) % 2 == 1
        got = run.request(args.seed, trace=traced)
        if got["measured"] is None:
            break
        if expected_text is None:
            expected_text = got["text"]
        elif got["text"] != expected_text:
            report = Report(["determinism"])
            report.fail("determinism", "output differs from the first request with the same seed")
            run.account(report)
        timed.append((traced, got))
        now = time.perf_counter()
        if now - started > RUN_LIMIT_S:
            break
        if len(timed) >= min_requests and now - loop_start + got["request_s"] > args.seconds:
            break

    untraced = [(traced, got) for traced, got in timed if not traced]
    plain = [got["measured"] for _, got in untraced]
    if not plain:
        print("run.py: no timed request completed", file=sys.stderr)
        return 1
    traced_runs = [got["measured"] for traced, got in timed if traced]
    if trace and not traced_runs:
        print("run.py: no traced request completed", file=sys.stderr)
        return 1
    if trace:
        layers = {name: _median([m["layers"][name] for m in traced_runs]) for name in traced_runs[0]["layers"]}
        layers["process.cpu_s"] = _median([m["cpu_s"] for m in plain])
        layers["trace.overhead_frac"] = (
            _median([m["call_s"] for m in traced_runs]) / _median([m["call_s"] for m in plain]) - 1.0
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        absent = sorted({a for m in traced_runs for a in m["absent"]})
        unmeasured = sorted({u for m in traced_runs for u in m["unmeasured"]})
    else:
        scale = [CALIB_REF_S / m["calib_s"] for m in plain]
        values = {
            "setup_s": _median([m["import_s"] * k for m, k in zip(plain, scale)]),
            "tables_per_s": _median([workload.tables / (m["call_s"] * k) for m, k in zip(plain, scale)]),
            "request_s": _median([got["request_s"] * k for (_, got), k in zip(untraced, scale)]),
            "peak_rss_mb": _median([m["peak_rss_mb"] for m in plain]),
            "ok_frac": (run.attempted - run.failed) / run.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        absent = unmeasured = []

    info = provenance(args, run, first["measured"]["versions"], 1 + len(timed))
    info.update(
        absent_layers=absent,
        unmeasured_counters=unmeasured,
        unscaled={
            "calib_s": _median([m["calib_s"] for m in plain]),
            "setup_s": _median([m["import_s"] for m in plain]),
            "call_s": _median([m["call_s"] for m in plain]),
            "request_s": _median([got["request_s"] for _, got in untraced]),
        },
    )
    for path, _ in run.inputs.values():
        path.unlink(missing_ok=True)
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
