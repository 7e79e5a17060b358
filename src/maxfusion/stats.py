"""Per-location channel statistics over feature maps.

Three quantities drive the fusion rules, all computed independently at
each spatial location (j, k) from the C-element channel vectors:

* the population standard deviation sigma across channels, a proxy for
  how strongly a branch's condition expresses itself at that location
  (quiet regions have flat channel vectors, active regions spiky ones);
* sigma_hat, the same map divided by its own spatial sum, which makes
  branches with different absolute activation scales comparable;
* rho, the cosine similarity between two branches' channel vectors,
  which gates whether they agree enough to be averaged.

Accumulation happens in float64 even though feature maps store float32,
so the variance of wide channel stacks does not cancel; sigma is the
two-pass ``np.std`` (mean first, then squared deviations), never
E[x^2] - E[x]^2.  Every reduction over C runs sequentially in channel
order at each location, so outputs are bit-reproducible on a given
platform.  Sums of products (dot products, squared norms, squared
deviations) go through ``einsum``, which accumulates in that same order
without materialising the product array.

The maps are computed over spatial row blocks: ``_each_block`` casts
each block of rows to float64 once (about 1 MiB per block, the height
derived from C and W), and a block body takes every statistic of that
block from the casts.  A block never holds a single location unless the
whole map does, because numpy would then reduce that location pairwise
instead of sequentially.  The blocks run on ``_each`` on up to
``_WORKERS`` threads (the CPUs the process may use), each writing only
its own rows; fusion's select and unmerge run on it too, over channel
``_slabs``.  Its helper threads start at the first call with two or
more parts and then live for the process, at most ``_WORKERS - 1`` of
them (none on one CPU); a forked child starts its own.  Every part
runs under the runner's own np.errstate, not the caller's: overflow
and underflow pass silently, the rest warns.  Block bounds and
per-block arithmetic do not depend on the thread count, so the
results are bit-identical to whole-array ones on any number of CPUs.
sigma_hat needs the global spatial sum, so it is derived from the
assembled sigma map after the blocks.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .tensor_core import FeatureMap, SpatialMap, _feature_maps, _instance

_BLOCK_BYTES = 1 << 20
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: Channel-vector norms and sigma spatial sums below this are zero signal.
EPSILON_NORM = 1e-12


def _row_blocks(c: int, h: int, w: int) -> list[slice]:
    """Row slices whose (C, rows, W) float64 cast is about _BLOCK_BYTES."""
    step = max(2, _BLOCK_BYTES // (8 * c * w))
    starts = list(range(0, h, step))
    if len(starts) > 1 and (h - starts[-1]) * w == 1:
        starts.pop()  # fold a one-location tail block into its neighbour
    return [slice(j, k) for j, k in zip(starts, starts[1:] + [h])]


def _slabs(c: int, h: int, w: int) -> list[slice]:
    """Channel slices, in order, whose (channels, H, W) float64 span is about _BLOCK_BYTES."""
    step = max(1, _BLOCK_BYTES // (8 * h * w))
    return [slice(i, min(i + step, c)) for i in range(0, c, step)]


_helpers: list[threading.Thread] = []  # grows to at most _WORKERS - 1, each alive for the process
_pending: list = []  # entries posted by _each calls that no helper has taken up yet
_ready = threading.Condition()


def _serve() -> None:
    """A helper's loop: take the oldest pending (work, done) entry, run work, release done.

    The entry is dropped once it has run, so an idle helper holds none of the
    arrays of the call it served.
    """
    while True:
        with _ready:
            while not _pending:
                _ready.wait()
            work, done = _pending.pop(0)
        work()
        done.release()
        del work, done


def _fresh_runner() -> None:
    """In a forked child, which holds none of its parent's helpers: new primitives, no entries."""
    global _ready
    _ready = threading.Condition()
    _pending.clear()
    _helpers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_runner)


def _each(fn, parts: list) -> None:
    """Call fn(part) for each of parts on the caller and on up to _WORKERS - 1 helpers.

    The call posts one (work, done) entry per helper it wants, starting helpers
    the process lacks, and works through the parts too; a helper takes parts
    from the same iterator and releases done when the parts run out.  The
    caller then takes back every entry no helper took up and waits only for
    those that a helper did, so a nested or concurrent call cannot deadlock.  A
    list of one part posts nothing.  The first exception is re-raised after
    those helpers finish.

    Every part, on any thread, runs under one np.errstate, not the caller's:
    overflow and underflow pass silently (a float32 subnormal is a legal result,
    and a part that may overflow checks its output), any other event warns.
    """
    todo, lock, errors = iter(parts), threading.Lock(), []

    def work():
        try:
            with np.errstate(all="warn", over="ignore", under="ignore"):
                while not errors:
                    with lock:
                        part = next(todo, None)
                    if part is None:
                        return
                    fn(part)
        except BaseException as exc:  # the caller re-raises it
            errors.append(exc)

    # done starts taken; the helper that runs the entry releases it
    posted = [(work, threading.Semaphore(0)) for _ in range(min(_WORKERS, len(parts)) - 1)]
    if posted:
        with _ready:
            while len(_helpers) < len(posted):
                helper = threading.Thread(target=_serve, name="maxfusion-stats", daemon=True)
                helper.start()
                _helpers.append(helper)
            _pending.extend(posted)
            _ready.notify(len(posted))
    work()
    if posted:
        with _ready:
            taken = []
            for entry in posted:
                if entry in _pending:
                    _pending.remove(entry)  # no helper took it up
                else:
                    taken.append(entry[1])
        for done in taken:
            done.acquire()
    if errors:
        raise errors[0]


def _each_block(fn, *xs: np.ndarray) -> None:
    """_each over row blocks: fn(rows, *casts) may overwrite its float64 copies of x[:, rows]."""
    _each(lambda r: fn(r, *(x[:, r].astype(np.float64) for x in xs)), _row_blocks(*xs[0].shape))


def _sumprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * b over axis 0 of two (C, rows, W) float64 blocks.

    einsum adds the products at each location in channel order, as
    add.reduce over axis 0 does, but writes no product array.  On a
    single location numpy reduces pairwise instead, so that case keeps
    multiply-then-sum.
    """
    if a[0].size == 1:
        return (a * b).sum(axis=0)
    return np.einsum("ijk,ijk->jk", a, b)


def _std(a: np.ndarray) -> np.ndarray:
    """Two-pass population std over axis 0, rounded exactly as np.std."""
    c = a.shape[0]
    dev = a - a.sum(axis=0, keepdims=True) / c
    return np.sqrt(_sumprod(dev, dev) / c)


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Clamped cosine similarity over axis 0 of two float64 blocks."""
    dot = _sumprod(a, b)
    n1sq = _sumprod(a, a)
    n2sq = _sumprod(b, b)
    ok = (np.sqrt(n1sq) >= EPSILON_NORM) & (np.sqrt(n2sq) >= EPSILON_NORM)
    rho = np.zeros_like(dot)
    # single sqrt of the product keeps rho(f, f) at exactly 1.0
    np.divide(dot, np.sqrt(n1sq * n2sq), out=rho, where=ok)
    return np.clip(rho, -1.0, 1.0, out=rho)


def _normalize(sigma: np.ndarray) -> np.ndarray:
    """sigma / its spatial sum, or the uniform map when that sum is below EPSILON_NORM."""
    total = float(sigma.sum())
    if total < EPSILON_NORM:
        return np.full(sigma.shape, 1.0 / sigma.size)
    return sigma / total


def _std_map(x: np.ndarray) -> np.ndarray:
    sigma = np.empty(x.shape[1:])
    _each_block(lambda rows, a: np.copyto(sigma[rows], _std(a)), x)
    return sigma


def _pair_pass(x1: np.ndarray, x2: np.ndarray):
    """One blocked pass over two (C, H, W) float32 arrays of equal shape.

    Returns (rho, sigma1, sigma2, mean): three (H, W) float64 maps and
    the float32 channel-wise mean (x1 + x2) / 2, rounded from float64.
    """
    rho, sigma1, sigma2 = np.empty((3,) + x1.shape[1:])
    mean = np.empty(x1.shape, dtype=np.float32)

    def block(rows, a, b):
        rho[rows] = _cosine(a, b)
        sigma1[rows] = _std(a)
        sigma2[rows] = _std(b)
        # a * 0.5 and a / 2 are the same real number, so they round alike; cast last
        np.multiply(np.add(a, b, out=a), 0.5, out=a)
        mean[:, rows] = a

    _each_block(block, x1, x2)
    return rho, sigma1, sigma2, mean


def channel_std_map(f: FeatureMap) -> SpatialMap:
    """Population standard deviation over channels at each location.

    Divides by C, not C-1, so C=1 inputs are well-defined (sigma = 0)
    and the variance-selection path degenerates to tie-breaking.
    """
    return SpatialMap._adopt(_std_map(_instance("f", f, FeatureMap).data))


def normalized_std_map(f: FeatureMap) -> SpatialMap:
    """Sigma map divided by its spatial sum; entries sum to 1.

    If the spatial sum is below EPSILON_NORM (an all-constant feature
    map), returns the exactly uniform map 1/(H*W) instead of dividing
    by zero.
    """
    return SpatialMap._adopt(_normalize(_std_map(_instance("f", f, FeatureMap).data)))


def correlation_map(f1: FeatureMap, f2: FeatureMap) -> SpatialMap:
    """Cosine similarity of the two branches' channel vectors per location.

    Values are clamped into [-1, 1] to absorb float rounding.  If either
    vector's norm is below EPSILON_NORM the location gets rho = 0: a
    zero feature carries no conditioning signal, so the gate should fall
    through to variance selection, where the zero branch loses.
    """
    _feature_maps((f1, f2), 2)
    rho = np.empty(f1.shape[1:])
    _each_block(lambda rows, a, b: np.copyto(rho[rows], _cosine(a, b)), f1.data, f2.data)
    return SpatialMap._adopt(rho)
