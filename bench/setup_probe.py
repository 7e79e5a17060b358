"""One set-up sample: ``import maxfusion`` plus a warm-up call, in a fresh interpreter.

Run by ``bench/run.py`` several times per run; prints one JSON line with
the import and warm-up seconds.  Generating the warm-up input is not
timed.  Usage: ``python3 bench/setup_probe.py <workload> <seed>`` from
the repository root, with ``src`` and ``bench`` on ``PYTHONPATH``.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import maxfusion  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - t0
    import workloads

    wl = workloads.make(workload, seed, Path(".bench_run") / "probe")
    wl.prepare(workloads.LADDER[-1:])
    t1 = time.perf_counter()
    wl.warmup()
    warmup_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))


if __name__ == "__main__":
    main()
