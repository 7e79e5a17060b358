"""Self-tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import maxfusion  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.LADDER[-3:]


def _prepared(name, seed, work):
    wl = workloads.make(name, seed, work)
    wl.prepare(SMALL)
    return wl


def test_workload_generation_is_deterministic_per_seed(tmp_path):
    a = workloads.ladder_sites(7, 3, sites=SMALL)
    b = workloads.ladder_sites(7, 3, sites=SMALL)
    c = workloads.ladder_sites(8, 3, sites=SMALL)
    flat = lambda sites: [br for site in sites for br in site]  # noqa: E731
    assert all(np.array_equal(x, y) for x, y in zip(flat(a), flat(b)))
    assert not any(np.array_equal(x, y) for x, y in zip(flat(a), flat(c)))
    assert workloads.make("toy-sim", 7, tmp_path).seeds == workloads.make("toy-sim", 7, tmp_path).seeds
    assert workloads.make("toy-sim", 7, tmp_path).seeds != workloads.make("toy-sim", 8, tmp_path).seeds


def test_ladder_agreement_share_spans_both_gate_paths():
    sites = workloads.ladder_sites(3, 2, sites=SMALL, shares=(1.0, 0.5, 0.0))
    fracs = [
        maxfusion.merge_pair(*(maxfusion.FeatureMap(b) for b in site)).selection.averaged_fraction()
        for site in sites
    ]
    assert fracs[0] == 1.0 and 0.25 < fracs[1] < 0.75 and fracs[2] == 0.0


def test_every_wrapped_name_resolves_at_every_binding():
    tr = tracer.Tracer()
    n_targets = sum(len(v) for v in tracer.TARGETS.values())
    try:
        assert tr.install() > n_targets  # re-exports add bindings beyond the defining modules
        assert tr.unwrapped_bindings() == []
    finally:
        tr.uninstall()
    assert not hasattr(maxfusion.cli.main, "__wrapped__")
    assert not hasattr(maxfusion.FeatureMap.__init__, "__wrapped__")


def test_missing_name_fails_before_patching(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "stats", ("channel_std_map", "no_such_map"))
    with pytest.raises(LookupError, match="stats.no_such_map"):
        tracer.Tracer().install()
    assert not hasattr(maxfusion.stats.channel_std_map, "__wrapped__")


def test_self_time_is_duration_minus_children():
    rng = np.random.default_rng(0)
    f1, f2 = (maxfusion.FeatureMap(rng.standard_normal((16, 8, 8))) for _ in range(2))
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.unit = 0
        maxfusion.merge_pair(f1, f2)
    finally:
        tr.uninstall()
    a = tr.arrays()
    dur = a["end_ns"] - a["start_ns"]
    top = int(np.flatnonzero(a["parent"] == -1)[0])
    assert tr.names[a["name_id"][top]] == "fusion.merge_pair"
    children = dur[a["parent"] == top].sum()
    per = tr.per_name()
    assert per["fusion.merge_pair"]["self_ns"] == dur[top] - children
    assert per["stats.normalized_std_map"]["calls"] == 2
    assert per["stats.correlation_map"]["bytes"] == 2 * f1.data.nbytes + 8 * 8 * 8
    assert tr.averaged_fractions == [maxfusion.merge_pair(f1, f2).selection.averaged_fraction()]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_digests_equal_untraced(name, tmp_path):
    wl = _prepared(name, 11, tmp_path)
    _, plain = wl.run_unit()
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.unit = 0
        _, traced = wl.run_unit()
    finally:
        tr.uninstall()
    assert traced == plain
    assert len(tr.start_ns) > 0


class _WrongOnce:
    """Wraps a workload and corrupts the digest of its second unit."""

    def __init__(self, wl):
        self.wl, self.calls = wl, 0

    def run_unit(self):
        self.calls += 1
        dt, digest = self.wl.run_unit()
        return dt, ("0" * 64 if self.calls == 2 else digest)


def test_injected_wrong_output_is_counted_as_failed(tmp_path):
    wl = _prepared("unet-ladder", 5, tmp_path)
    checker = run.Checker(None)
    phase = run.Phase()
    wrong = _WrongOnce(wl)
    for i in range(3):
        phase.run(wrong, i, checker)
    assert (phase.attempted, phase.failed, len(phase.seconds)) == (3, 1, 3)


def test_reference_mode_rejects_a_changed_digest():
    checker = run.Checker("a")
    assert checker.check("a")
    assert not checker.check("b")
    first_seen = run.Checker(None)
    assert first_seen.check("b") and not first_seen.check("a")


def test_reference_digests_cover_every_workload():
    refs = json.loads(run.REFERENCE.read_text())
    assert set(refs) == set(run.WORKLOADS)
    assert all(len(digest) == 64 for digest in refs.values())


def test_oracle_spot_check_passes(tmp_path):
    wl = workloads.make("unet-ladder", 2, tmp_path)
    assert run.oracle_spot_check(wl, 2) == {"toy 8x16x16": True, "ladder 1280x8x8": True}


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(x) for x in range(1, 36)]) == (71, 25.0, 10)
    assert run.tail([float(x) for x in range(1, 251)]) == (96, 240.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0, 0)


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == ["unet-ladder", "cli-fuse"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_a_result_outside_a_full_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "toy-sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
