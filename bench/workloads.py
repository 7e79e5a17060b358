"""The three benchmark workloads and their input generators.

Each workload is a closed loop driven by one caller in one process: the
next unit starts when the previous one returned.  A workload turns the
benchmark seed into inputs once (``prepare``); each ``run_unit()`` then
performs one unit and returns ``(seconds, digest)``.  Only calls into
maxfusion are inside ``seconds``; the digest of what the unit produced
is taken afterwards.  Every unit of a workload does the same work, so
every unit must produce the same digest, bit for bit.

* ``toy-sim``: in-process ``maxfusion.cli.main`` jobs on the 16x16x8,
  50-step presets; many tiny numpy calls per step, so per-call
  overhead, validation and container construction dominate.
* ``unet-ladder``: ``maxfusion_fold`` of 3 branches at each of the 13
  SD-1.5 ControlNet residual shapes; bulk float64 statistics, merge and
  unmerge over MB-sized arrays, no simulator and no IO.
* ``cli-fuse``: ``maxfusion.cli.main(["fuse", ...])`` on 2-branch MXFT
  files at every ladder site; the only workload where tensor IO and PGM
  rendering work and where the unmerged branches are consumed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import time
from pathlib import Path

import numpy as np

import maxfusion
from maxfusion import cli

WORKLOADS = ("toy-sim", "unet-ladder", "cli-fuse")

#: (C, H, W) of the 13 residual sites a ControlNet feeds into an SD-1.5 UNet
LADDER = (
    ((320, 64, 64),) * 3
    + ((320, 32, 32),)
    + ((640, 32, 32),) * 2
    + ((640, 16, 16),)
    + ((1280, 16, 16),) * 2
    + ((1280, 8, 8),) * 4
)

ABLATE_DELTAS = "-1,0,0.5,0.7,1,2"

#: the toy-sim mix, run in this order
TOY_JOBS = (
    ("compare", "--preset", "contradictory"),
    ("compare", "--preset", "complementary"),
    ("compare", "--preset", "three_way"),
    ("ablate", "--preset", "contradictory", "--deltas", ABLATE_DELTAS),
    ("ablate", "--preset", "complementary", "--deltas", ABLATE_DELTAS),
)


def ladder_sites(seed: int, n_branches: int, sites=LADDER, shares=None) -> list[list[np.ndarray]]:
    """Float32 branch features per site, agreeing on a per-site share of locations.

    By default the share falls linearly from 1 at the first site to 0 at
    the last, so both gate paths run.  Where branches agree they share one channel
    vector up to 10% noise (rho about 0.99); elsewhere their vectors are
    independent (|rho| well below 0.7 for C >= 320) with a per-location
    amplitude in [0.5, 2], so sigma_hat picks real winners.
    """
    rng = np.random.default_rng(seed)
    if shares is None:
        shares = np.linspace(1.0, 0.0, len(sites))
    out = []
    for shape, share in zip(sites, shares):
        _, h, w = shape
        agree = rng.random((h, w)) < share
        common = rng.standard_normal(shape, dtype=np.float32)
        branches = []
        for _ in range(n_branches):
            own = rng.standard_normal(shape, dtype=np.float32)
            amp = rng.uniform(0.5, 2.0, size=(h, w)).astype(np.float32)
            branches.append(np.where(agree, common + np.float32(0.1) * own, amp * own))
        out.append(branches)
    return out


def _hash_arrays(h, arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(a))


def _hash_dir(h, out_dir: Path, stdout: str) -> None:
    h.update(stdout.encode())
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())


def _run_cli(argv: list[str]) -> tuple[float, str]:
    """Run ``maxfusion.cli.main`` in-process; returns (seconds, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"maxfusion {' '.join(argv)} exited {rc}")
    return dt, buf.getvalue()


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class ToySim:
    """The five CLI jobs on the toy presets; one unit is one pass of the mix.

    Job seeds come from the benchmark seed.  A unit is the whole mix, not
    one job, because the jobs differ about 2x in cost: a median over single
    jobs sits on the boundary between the cheap and the dear ones and
    swings with any slow spell of a shared host.
    """

    name = "toy-sim"

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, len(TOY_JOBS))]

    def prepare(self, sites=None) -> None:
        """``sites`` is unused: the presets fix the toy shape."""
        self.work.mkdir(parents=True, exist_ok=True)

    def argv(self, k: int, out: Path) -> list[str]:
        return [*TOY_JOBS[k], "--seed", str(self.seeds[k]), "--out", str(out)]

    def run_unit(self) -> tuple[float, str]:
        h = hashlib.sha256()
        total = 0.0
        for k in range(len(TOY_JOBS)):
            out = _fresh_dir(self.work / f"job{k}")
            dt, stdout = _run_cli(self.argv(k, out))
            total += dt
            _hash_dir(h, out, stdout)
        return total, h.hexdigest()

    def warmup(self) -> None:
        _run_cli(self.argv(0, _fresh_dir(self.work / "warmup")))


class UnetLadder:
    """One 3-branch fold per ladder site; one unit is one ladder pass."""

    name = "unet-ladder"
    branches = 3

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.sites: list[list[maxfusion.FeatureMap]] = []

    def prepare(self, sites=LADDER) -> None:
        self.sites = [
            [maxfusion.FeatureMap(b) for b in branches]
            for branches in ladder_sites(self.seed, self.branches, sites)
        ]

    def run_unit(self) -> tuple[float, str]:
        h = hashlib.sha256()
        total = 0.0
        for branches in self.sites:
            t0 = time.perf_counter()
            fold = maxfusion.fusion.maxfusion_fold(branches)
            total += time.perf_counter() - t0
            _hash_arrays(h, [fold.f_eff.data])
            _hash_arrays(h, [r.selection.codes for r in fold.pair_results])
            _hash_arrays(h, [u.data for u in fold.updated])
        return total, h.hexdigest()

    def warmup(self) -> None:
        maxfusion.fusion.maxfusion_fold(self.sites[-1])


class CliFuse:
    """``maxfusion fuse`` on 2-branch MXFT files at every ladder site."""

    name = "cli-fuse"
    branches = 2

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.jobs: list[tuple[list[str], Path]] = []

    def prepare(self, sites=LADDER) -> None:
        inputs = _fresh_dir(self.work / "inputs")
        for s, branches in enumerate(ladder_sites(self.seed, self.branches, sites)):
            paths = []
            for b, data in enumerate(branches):
                path = inputs / f"site{s:02d}_b{b}.mxft"
                with open(path, "wb") as fh:
                    maxfusion.write_tensor(maxfusion.FeatureMap(data), fh)
                paths.append(str(path))
            out = self.work / f"site{s:02d}"
            self.jobs.append((["fuse", *paths, "--out", str(out)], out))

    def run_unit(self) -> tuple[float, str]:
        h = hashlib.sha256()
        total = 0.0
        for argv, out in self.jobs:
            _fresh_dir(out)
            dt, stdout = _run_cli(argv)
            total += dt
            _hash_dir(h, out, stdout)
        return total, h.hexdigest()

    def warmup(self) -> None:
        argv, out = self.jobs[-1]
        _fresh_dir(out)
        _run_cli(argv)


def make(name: str, seed: int, work: Path):
    cls = {"toy-sim": ToySim, "unet-ladder": UnetLadder, "cli-fuse": CliFuse}[name]
    return cls(seed, work / name)
