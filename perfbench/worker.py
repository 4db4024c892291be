"""One CLI request in a fresh interpreter.

Usage: python3 worker.py '<json spec>'

The spec names the CLI arguments, whether to trace, the request's table
count and where to write the JSON result. The worker times the import of
``trendmax.cli`` (with numpy and scipy.stats), then one ``cli.main`` call,
and records the process's peak resident memory. ``trendmax`` must come
from the ``src`` directory given in the spec, never from an installed
copy.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def calibrate() -> float:
    """Seconds for a fixed mix of numpy and interpreter work.

    The speed of a shared machine drifts by up to a quarter within
    minutes; run.py scales each request's timings by the median of this
    figure taken just before and just after the call. It allocates under
    2 MB; on analyze_perm it raises the peak resident memory by 0.3 MB.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(5):
        cells = rng.multinomial(250, (0.49, 0.42, 0.09), size=20_000).astype(float)
        np.sort((cells[:, 1] * 0.5 + cells[:, 2]) / np.sqrt(cells.sum(axis=1) + 1.0))
    acc: dict[int, int] = {}
    for i in range(300_000):
        acc[i & 255] = acc.get(i & 255, 0) + i
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()

    start = time.perf_counter()
    import trendmax.cli as cli

    import_s = time.perf_counter() - start
    if Path(cli.__file__).resolve().parents[1] != src:
        print(f"trendmax imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    calib = [calibrate() for _ in range(3)]
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, spec["tables"])

    error = None
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        rc = cli.main(spec["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc, error = None, traceback.format_exc(limit=5)
    call_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calib += [calibrate() for _ in range(3)]

    import numpy
    import scipy

    result = {
        "import_s": import_s,
        "call_s": call_s,
        "cpu_s": cpu_s,
        "calib_s": statistics.median(calib),
        "rc": rc,
        "error": error,
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = spans.summarize(tracer)
        result["absent"] = tracer.absent
        result["unmeasured"] = sorted(tracer.unmeasured)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
