"""Run one trendmax command in a child process; print its peak RSS and wall time, gate the RSS.

    python .github/peak_rss.py --limit-mb L [--tables N] -- <trendmax args>

With ``--tables N``, N rows of ``default_rng(1).integers(1, 60, size=(N, 6))``
are written to a temporary file, passed as ``--input``. The child runs under
``-W error::RuntimeWarning``, as the tests do, so a numpy warning from a kernel
fails it. The exit status is 1 when the child's peak RSS exceeds L MB; the wall
time is printed, not gated. Run it with ``src/`` on ``PYTHONPATH``.
"""

import argparse
import os
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit-mb", type=float, required=True)
    parser.add_argument("--tables", type=int, default=None)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    label = " ".join(command)
    with tempfile.TemporaryDirectory() as tmp:
        if args.tables is not None:
            label += f" --input <{args.tables} generated tables>"
            path = os.path.join(tmp, "tables.txt")
            rng = np.random.default_rng(1)
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(" ".join(map(str, cells)) + "\n"
                              for cells in rng.integers(1, 60, size=(args.tables, 6)))
            command += ["--input", path]
        start = time.perf_counter()
        subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "trendmax.cli", *command],
                       check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
    mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"trendmax {label}: peak RSS {mb:.1f} MB (limit {args.limit_mb:g} MB), "
          f"wall time {wall:.2f} s")
    return int(mb > args.limit_mb)


if __name__ == "__main__":
    sys.exit(main())
