"""Spans around the public functions of ``trendmax``, recorded from outside.

The program is not edited. :func:`install` replaces each listed function
with a wrapper in every ``trendmax`` module that holds a reference to it,
so a call is recorded whichever module it is looked up in (for example
``montecarlo.evaluate_battery`` and ``battery.evaluate_battery``). A
listed name that no longer exists is reported as absent instead of
failing the run.

Spans are kept in memory. Each records its name, its parent span, start
and end times and the tables it processed; :func:`summarize` turns them
into per-layer calls, rows and self time.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _size(value) -> int:
    return int(np.size(value))


def _first_len(result) -> int:
    """Rows of a tuple or dict of equal-length arrays."""
    values = result.values() if isinstance(result, dict) else result
    for value in values:
        return _size(value)
    return 0


# (module, function, tables processed per call). The rows function gets
# an argument lookup by parameter name and the call's result; None means
# the request's own table count.
LAYERS = (
    ("cli", "main", None),
    ("scenarios", "load_scenarios", lambda arg, result: len(result)),
    ("tables", "parse_table_record", lambda arg, result: 1),
    ("montecarlo", "simulate_cells", lambda arg, result: len(result)),
    ("montecarlo", "estimate_critical_values", lambda arg, result: int(arg("b"))),
    ("montecarlo", "estimate_power", lambda arg, result: int(arg("b"))),
    ("montecarlo", "pvalue_crosstab", lambda arg, result: int(arg("b_null")) + int(arg("b_reps"))),
    ("montecarlo", "permutation_pvalue", lambda arg, result: int(arg("b"))),
    ("montecarlo", "empirical_upper_quantile", lambda arg, result: _size(arg("values"))),
    ("battery", "evaluate_battery", lambda arg, result: _first_len(result)),
    ("battery", "evaluate_single", lambda arg, result: 1),
    ("trend", "trend_values", lambda arg, result: _size(result)),
    ("robust", "batch_correlations", lambda arg, result: _first_len(result)),
    ("robust", "estimate_correlations", lambda arg, result: 1),
    ("robust", "mert_certificate", lambda arg, result: 1),
    ("classical", "chi2df_values", lambda arg, result: _size(result)),
    ("classical", "allele_chisq_values", lambda arg, result: _size(result)),
    ("classical", "hwd_values", lambda arg, result: _size(result)),
)

LAYER_NAMES = tuple(f"{module}.{name}" for module, name, _ in LAYERS)


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root
    start: float
    end: float = 0.0
    rows: int = 0
    failed: bool = False


@dataclass
class Counters:
    """Counts recorded at the layer boundaries besides calls and rows."""

    sample_strata_tables: int = 0
    sample_bytes: int = 0
    trend_bytes: int = 0
    battery_undefined: int = 0
    permutation_keys: set = field(default_factory=set)


class Tracer:
    """In-memory span recorder for one request (single-threaded)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = Counters()
        self.absent: list[str] = []
        self.unmeasured: set[str] = set()  # counters a refactor made uncomputable
        self._stack: list[int] = []

    def wrap(self, name: str, fn, rows, on_result=None):
        params = _parameter_names(fn)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()

            def arg(pname):
                i = params.index(pname)
                return args[i] if i < len(args) else kwargs[pname]

            # A counter must never fail the request it observes.
            try:
                span.rows = rows(arg, result)
                if on_result is not None:
                    on_result(arg, result)
            except Exception:
                self.unmeasured.add(name)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _parameter_names(fn) -> list[str]:
    code = getattr(fn, "__code__", None)
    if code is None:
        return []
    return list(code.co_varnames[: code.co_argcount + code.co_kwonlyargcount])


def _counting_hooks(counters: Counters) -> dict[str, object]:
    def sample(arg, result):
        counters.sample_bytes += result.nbytes
        counters.sample_strata_tables += len(result) * len(arg("scenario").strata())

    def trend(arg, result):
        counters.trend_bytes += np.asarray(arg("cells")).nbytes + np.asarray(result).nbytes

    def battery(arg, result):
        counters.battery_undefined += sum(int(np.isnan(v).sum()) for v in result.values())

    def permutation(arg, result):
        counters.permutation_keys.add((arg("table"), arg("b"), arg("seed")))

    return {
        "montecarlo.simulate_cells": sample,
        "trend.trend_values": trend,
        "battery.evaluate_battery": battery,
        "montecarlo.permutation_pvalue": permutation,
    }


def install(tracer: Tracer, cli_rows: int) -> None:
    """Wrap every listed layer that exists in the loaded ``trendmax``."""
    hooks = _counting_hooks(tracer.counters)
    loaded = [m for key, m in sys.modules.items() if key == "trendmax" or key.startswith("trendmax.")]
    for module_name, fn_name, rows in LAYERS:
        name = f"{module_name}.{fn_name}"
        try:
            home = importlib.import_module(f"trendmax.{module_name}")
        except ImportError:
            tracer.absent.append(name)
            continue
        original = getattr(home, fn_name, None)
        if not callable(original):
            tracer.absent.append(name)
            continue
        if rows is None:
            rows = lambda arg, result: cli_rows  # noqa: E731 - the request's table count
        wrapper = tracer.wrap(name, original, rows, hooks.get(name))
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = -math.inf
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach, span.start)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, rows and self time, plus the boundary counters."""
    out: dict[str, float] = {}
    errors = sum(1 for s in tracer.spans if s.failed and s.name == "montecarlo.permutation_pvalue")
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.rows"] = 0
        out[f"{name}.self_s"] = 0.0
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.rows"] += span.rows
        out[f"{span.name}.self_s"] += self_s
    c = tracer.counters
    battery_calls = out["battery.evaluate_battery.calls"]
    perm_calls = out["montecarlo.permutation_pvalue.calls"]
    null_runs = out["montecarlo.estimate_critical_values.calls"]
    out.update({
        "montecarlo.sample.strata_tables": c.sample_strata_tables,
        "montecarlo.sample.bytes": c.sample_bytes,
        "trend.values.bytes": c.trend_bytes,
        "battery.eval.undefined": c.battery_undefined,
        "battery.eval.rows_per_call": out["battery.evaluate_battery.rows"] / battery_calls if battery_calls else 0.0,
        "montecarlo.criticals.reuse": out["scenarios.load_scenarios.rows"] / null_runs if null_runs else 0.0,
        "montecarlo.permutation.repeat_frac": (perm_calls - len(c.permutation_keys)) / perm_calls if perm_calls else 0.0,
        "montecarlo.permutation.errors": errors,
        "trace.absent_layers": len(tracer.absent),
    })
    return out
