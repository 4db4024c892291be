"""Store the output of each workload at REFERENCE_SEED under reference/.

Usage (from the repository root): python3 perfbench/capture_reference.py [workload ...]

Run it only at a commit whose outputs are known to be right; the
benchmark then compares every request at that seed with these files.
"""

from __future__ import annotations

import gzip
import sys
import time

from checks import reference_path
from run import WORK, Run
from workloads import REFERENCE_SEED, WORKLOADS


def main(names) -> int:
    WORK.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        run = Run(WORKLOADS[name], time.perf_counter() + 600.0)
        run.check_reference = False
        got = run.request(REFERENCE_SEED, trace=False)
        if run.failed or got["measured"] is None:
            print(f"{name}: not stored, the output fails its checks: {run.notes or got['stderr']}", file=sys.stderr)
            return 1
        path = reference_path(name)
        path.parent.mkdir(exist_ok=True)
        with gzip.GzipFile(path, mode="wb", mtime=0) as fh:
            fh.write(got["text"].encode("utf-8"))
        print(f"{name}: {run.attempted} rows -> {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
