"""maxfusion benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Usage, from the repository root:

    python3 bench/run.py --workload cli-fuse --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, measured with no tracer
installed.  ``--trace 1`` alternates untraced units with units run
under the outside-in tracer, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it give the same numbers for people, plus the environment block.  The
full result, and the spans of a traced run, are written under
``.bench_run/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = Path(".bench_run")  # relative to ROOT, so CLI output names no absolute path
REFERENCE = BENCH / "reference_digests.json"
DEFAULT_SEED = 0
SETUP_PROBES = 11
WORKLOADS = ("toy-sim", "unet-ladder", "cli-fuse")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: end-to-end metrics, reported with --trace 0
END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_ms_p50": "ms",
    "unit_ms_tail": "ms",
    "peak_rss_mb": "MiB",
}

_IO = ("read_tensor", "write_tensor", "write_pgm", "write_selection_pgm")
_SIM = ("sample", "branch_encode", "decode_guidance", "analytic_score", "run_ablation")
_LAYERS = ("tensor_core", "stats", "fusion", "simulator", "cli")

#: per-layer metrics, reported with --trace 1; per-unit values unless the unit says otherwise
PER_LAYER = {
    **{f"stats.{f}.self_ms": "ms/unit" for f in ("correlation_map", "normalized_std_map", "channel_std_map")},
    "stats.bytes": "B/unit",
    "stats.gbps_computed": "GB/s",
    "stats.std_maps_per_merge": "ratio",
    **{
        f"fusion.{f}.{m}": u
        for f in ("merge_pair", "unmerge_pair", "maxfusion_fold")
        for m, u in (("self_ms", "ms/unit"), ("calls", "1/unit"))
    },
    "fusion.unmerge_per_merge": "ratio",
    "fusion.averaged_fraction": "ratio",
    "fusion.bytes": "B/unit",
    "fusion.gbps_computed": "GB/s",
    **{
        f"tensor_core.{c}.{m}": u
        for c in ("FeatureMap", "SpatialMap", "SelectionMask")
        for m, u in (("calls", "1/unit"), ("self_ms", "ms/unit"))
    },
    **{
        f"tensor_core.{f}.{m}": u
        for f in _IO
        for m, u in (("self_ms", "ms/unit"), ("bytes", "B/unit"), ("gbps_computed", "GB/s"))
    },
    **{
        f"simulator.{f}.{m}": u
        for f in _SIM
        for m, u in (("self_ms", "ms/unit"), ("calls", "1/unit"))
    },
    "cli.main.self_ms": "ms/unit",
    **{f"{layer}.failed": "count" for layer in _LAYERS},
    "trace_overhead_frac": "ratio",
}

BYTES_NOTE = (
    "bytes and gbps_computed are computed from array and file sizes per call, "
    "not measured traffic; every working set fits in the last-level cache, and "
    "file writes land in the page cache, so they are not durable-disk numbers"
)


# -- environment ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    best = (0, "unknown")
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(nproc: int) -> dict:
    import numpy as np

    src = sorted((ROOT / "src" / "maxfusion").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


# -- measurement ------------------------------------------------------------


class Checker:
    """Every unit must reproduce one digest: the committed one, else the first seen."""

    def __init__(self, reference: str | None):
        self.expected = reference

    def check(self, digest: str) -> bool:
        if self.expected is None:
            self.expected = digest
        return digest == self.expected


class Phase:
    """Unit timings and outcomes of one measuring loop."""

    def __init__(self):
        self.seconds: list[float] = []
        self.setups: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def run(self, wl, i: int, checker: Checker) -> None:
        self.attempted += 1
        try:
            dt, digest = wl.run_unit()
        except Exception:  # a unit that raises is a failed unit, not a crash
            self.failed += 1
            print(f"unit {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        self.seconds.append(dt)
        if not checker.check(digest):
            self.failed += 1
            print(f"unit {i} output digest {digest} != {checker.expected}", file=sys.stderr)

    @property
    def units_per_s(self) -> float:
        return len(self.seconds) / sum(self.seconds) if self.seconds else 0.0


def measure(wl, seconds: float, checker: Checker, probe=None) -> Phase:
    """Closed loop: run units one after another for ``seconds`` of wall time.

    ``probe``, if given, is called SETUP_PROBES times at evenly spaced
    moments of the loop, between units, so the set-up samples meet the
    same slow and fast spells of a shared host as the units do.
    """
    phase = Phase()
    start = time.perf_counter()
    i = 1
    while (elapsed := time.perf_counter() - start) < seconds or not phase.attempted:
        due = len(phase.setups) * seconds / SETUP_PROBES <= elapsed
        if probe is not None and len(phase.setups) < SETUP_PROBES and due:
            phase.setups.append(probe())
            continue
        phase.run(wl, i, checker)
        i += 1
    while probe is not None and len(phase.setups) < SETUP_PROBES:
        phase.setups.append(probe())
    return phase


def measure_alternating(wl, seconds: float, checker: Checker, tracer) -> tuple[Phase, Phase]:
    """Like ``measure``, but every second unit runs with the tracer installed.

    Alternating, rather than tracing one half of the run, lets both
    halves meet the same slow and fast spells of a shared host.
    """
    plain, traced = Phase(), Phase()
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds or not traced.attempted:
        if i % 2:
            plain.run(wl, i, checker)
        else:
            tracer.unit = i
            tracer.install()
            try:
                traced.run(wl, i, checker)
            finally:
                tracer.uninstall()
        i += 1
    return plain, traced


def tail(ms: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it): the highest whole percentile with
    at least 10 samples beyond it, by nearest rank; the maximum below 11 samples."""
    ms = sorted(ms)
    n = len(ms)
    if n <= 10:
        return 100, ms[-1], 0
    p = 100 * (n - 10) // n
    rank = max(-(-p * n // 100), 1)  # ceil in integers
    return p, ms[rank - 1], n - rank


def setup_probe(workload: str, seed: int) -> dict:
    """One fresh interpreter timing ``import maxfusion`` + a warm-up call."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def oracle_spot_check(wl, seed: int) -> dict[str, bool]:
    """Selection codes of maxfusion_fold against the scalar-loop oracles.

    Always at the toy shape (8x16x16, 3 branches); for the ladder
    workloads also at the smallest ladder site with the workload's
    branch count and half the locations agreeing.
    """
    import numpy as np
    import oracles
    import workloads

    import maxfusion

    rng = np.random.default_rng(seed)
    cases = {"toy 8x16x16": [rng.standard_normal((8, 16, 16)).astype(np.float32) for _ in range(3)]}
    if wl.name != "toy-sim":
        site = workloads.LADDER[-1]
        cases["ladder {}x{}x{}".format(*site)] = workloads.ladder_sites(
            seed, wl.branches, sites=(site,), shares=(0.5,)
        )[0]
    result = {}
    for label, branches in cases.items():
        fold = maxfusion.maxfusion_fold([maxfusion.FeatureMap(b) for b in branches])
        _, _, codes = oracles.fold(branches, 0.7, True)
        result[label] = all(
            np.array_equal(c, r.selection.codes) for c, r in zip(codes, fold.pair_results)
        )
    return result


def layer_metrics(tracer, n_units: int, overhead: float) -> dict[str, float]:
    per = tracer.per_name()
    get = lambda q, k: per[q][k]  # noqa: E731
    m = {}
    for q in PER_LAYER:
        head, _, kind = q.rpartition(".")
        if head in per and kind in ("self_ms", "calls", "bytes"):
            key = {"self_ms": "self_ns", "calls": "calls", "bytes": "bytes"}[kind]
            m[q] = get(head, key) / (1e6 if kind == "self_ms" else 1.0) / n_units
        elif head in per and kind == "gbps_computed":
            ns = get(head, "incl_ns")
            m[q] = get(head, "bytes") / ns if ns else 0.0
    for layer in ("stats", "fusion"):
        quals = [q for q in per if q.startswith(layer + ".")]
        moved = sum(get(q, "outer_bytes") for q in quals)
        ns = sum(get(q, "outer_incl_ns") for q in quals)
        m[f"{layer}.bytes"] = moved / n_units
        m[f"{layer}.gbps_computed"] = moved / ns if ns else 0.0
    for layer in _LAYERS:
        m[f"{layer}.failed"] = sum(v["failed"] for q, v in per.items() if q.startswith(layer + "."))
    merges = get("fusion.merge_pair", "calls") + get("fusion.pure_max_select", "calls")
    std_maps = get("stats.normalized_std_map", "calls") + get("stats.channel_std_map", "calls")
    m["stats.std_maps_per_merge"] = std_maps / merges if merges else 0.0
    m["fusion.unmerge_per_merge"] = get("fusion.unmerge_pair", "calls") / merges if merges else 0.0
    fracs = tracer.averaged_fractions
    m["fusion.averaged_fraction"] = sum(fracs) / len(fracs) if fracs else 0.0
    m["trace_overhead_frac"] = overhead
    missing = set(PER_LAYER) - set(m)
    if missing:
        raise LookupError(f"per-layer metrics not computed: {sorted(missing)}")
    return {q: m[q] for q in PER_LAYER}


# -- driver -----------------------------------------------------------------


def run_workload(args, nproc: int) -> int:
    import numpy as np  # noqa: F401  (after the thread caps are set)

    t0 = time.perf_counter()
    import maxfusion

    import_s = time.perf_counter() - t0
    if Path(maxfusion.__file__).resolve().parent != (ROOT / "src" / "maxfusion").resolve():
        print(f"error: imported maxfusion from {maxfusion.__file__}, not from src/", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    reference = None
    if args.seed == DEFAULT_SEED and not args.write_reference:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    checker = Checker(reference)
    wl = workloads.make(args.workload, args.seed, WORK)
    result: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "import_s_main": import_s}
    try:
        t0 = time.perf_counter()
        wl.prepare()
        result["inputs_s"] = time.perf_counter() - t0

        warm = Phase()
        warm.run(wl, 0, checker)
        if args.write_reference:
            refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            refs[args.workload] = checker.expected
            REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
            print(f"wrote the reference digest for {args.workload}")
            return 0 if warm.failed == 0 else 1
        spot = oracle_spot_check(wl, args.seed)
        result["oracle_spot_check"] = spot

        if args.trace:
            tr = tracing.Tracer()
            result["bindings_patched"] = tr.install()
            tr.uninstall()
            plain, traced = measure_alternating(wl, args.seconds, checker, tr)
            phases = [warm, plain, traced]
            overhead = plain.units_per_s / traced.units_per_s - 1.0 if traced.seconds else 0.0
            metrics = layer_metrics(tr, traced.attempted, overhead)
            units = PER_LAYER
            spans = WORK / f"spans-{args.workload}.npz"
            tr.write(spans)
            result["spans_file"] = str(spans)
            result["traced_digests_match"] = traced.failed == 0
        else:
            timed = measure(wl, args.seconds, checker,
                            probe=lambda: setup_probe(args.workload, args.seed))
            phases = [warm, timed]
            if not timed.seconds:
                print("error: no unit completed", file=sys.stderr)
                return 1
            result["setup_samples"] = timed.setups
            setup_s = statistics.median(s["import_s"] + s["warmup_s"] for s in timed.setups)
            ms = [s * 1000.0 for s in timed.seconds]
            p, tail_ms, beyond = tail(ms)
            metrics = {
                "setup_s": setup_s,
                "units_per_s": timed.units_per_s,
                "unit_ms_p50": statistics.median(ms),
                "unit_ms_tail": tail_ms,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            result.update(tail_percentile=p, tail_beyond=beyond, timed_units=len(ms), unit_ms=ms)
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
        shutil.rmtree(WORK / "probe" / args.workload, ignore_errors=True)

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    correct = failed == 0 and all(spot.values())
    result.update(
        environment=environment(nproc),
        bytes_note=BYTES_NOTE,
        correct=correct,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    )
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for k, v in metrics.items():
        print(f"  {k:42s} {v:14.6g} {units[k]}")
    print(f"  {'failed_frac':42s} {failed / attempted:14.6g} ratio ({failed} of {attempted} units)")
    if not args.trace:
        print(f"  unit_ms_tail is p{result['tail_percentile']}: {result['tail_beyond']} of "
              f"{result['timed_units']} timed units lie beyond it")
        print(f"  setup_s: median of {SETUP_PROBES} fresh interpreters, import maxfusion + warm-up; "
              f"benchmark input generation took {result['inputs_s']:.3f} s and is excluded")
    else:
        print(f"  {BYTES_NOTE}")
    print(f"  oracle spot check: {spot}")
    print("env " + json.dumps(result["environment"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help=f"record the seed-{DEFAULT_SEED} output digests instead of measuring")
    args = ap.parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        ap.error(f"--write-reference needs --seed {DEFAULT_SEED}")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    os.chdir(ROOT)
    for needed in (ROOT / "src" / "maxfusion" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args)

    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
