import json
import subprocess
import sys
from pathlib import Path

import pytest

from spans import LAYER_NAMES, Span, Tracer, self_times, summarize

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_self_time_subtracts_children_at_every_level():
    spans = [
        Span("cli.main", -1, 0.0, 10.0),
        Span("montecarlo.simulate_cells", 0, 1.0, 3.0, rows=5),
        Span("battery.evaluate_battery", 0, 4.0, 8.0, rows=5),
        Span("trend.trend_values", 2, 5.0, 6.0, rows=5),
        Span("trend.trend_values", 2, 6.5, 7.0, rows=5),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.5, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", -1, 0.0, 10.0), Span("b", 0, 2.0, 6.0), Span("c", 0, 4.0, 9.0), Span("d", 0, 9.5, 12.0)]
    # children cover [2, 9] and [9.5, 10] of the parent
    assert self_times(spans)[0] == pytest.approx(2.5)


def test_summary_adds_calls_rows_and_self_time_per_layer():
    tracer = Tracer()
    tracer.spans += [
        Span("cli.main", -1, 0.0, 10.0),
        Span("trend.trend_values", 0, 1.0, 2.0, rows=7),
        Span("trend.trend_values", 0, 3.0, 5.0, rows=3),
    ]
    out = summarize(tracer)
    assert out["trend.trend_values.calls"] == 2
    assert out["trend.trend_values.rows"] == 10
    assert out["trend.trend_values.self_s"] == pytest.approx(3.0)
    assert out["cli.main.self_s"] == pytest.approx(7.0)
    assert out["montecarlo.simulate_cells.calls"] == 0


INSTALL_PROBE = """
import json, sys
import numpy as np
import trendmax.cli, trendmax.robust, trendmax.battery, trendmax.montecarlo
del trendmax.robust.mert_certificate
import spans
tracer = spans.Tracer()
spans.install(tracer, 0)
cells = np.array([[10., 20, 30, 30, 20, 10]] * 4)
trendmax.battery.evaluate_battery(cells, ("MAX3",))
trendmax.montecarlo.evaluate_battery(cells, ("Z0",))
print(json.dumps({"absent": tracer.absent, "layers": spans.summarize(tracer)}))
"""


def test_install_wraps_every_binding_and_reports_missing_names():
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{BENCH}", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, "-c", INSTALL_PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["absent"] == ["robust.mert_certificate"]
    layers = got["layers"]
    assert layers["battery.evaluate_battery.calls"] == 2
    assert layers["battery.evaluate_battery.rows"] == 8
    assert layers["trend.trend_values.calls"] == 4  # three scores for MAX3, one for Z0
    assert layers["trace.absent_layers"] == 1
    assert set(LAYER_NAMES) <= {name.rsplit(".", 1)[0] for name in layers}
