"""Bit-identity of the row-blocked statistics kernel.

The references below are the whole-array formulas the blocked kernel
replaced, kept verbatim: every map the library computes must equal them
byte for byte (so a -0.0 where the reference has 0.0 fails), not merely
be close.  Small shapes are split into many blocks by shrinking the
block budget, so every edge of the blocking (a short tail block, a
one-row tail at W = 1, a single block) is reached without MB-sized
inputs.  The blocks of one map run on up to ``stats._WORKERS`` threads;
``TestBlockRunner`` sets that count, so the threaded path is checked on
a one-CPU host too.  ``TestSlabPass`` does the same for merge_pair's
select and the unmerge rescale, which run on the same runner over
channel slabs.
"""

import contextlib
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxfusion import (
    AVERAGED,
    FeatureMap,
    PairFusionResult,
    SelectionMask,
    SpatialMap,
    channel_std_map,
    correlation_map,
    maxfusion_fold,
    merge_pair,
    normalized_std_map,
    unmerge_pair,
)
from maxfusion import fusion, preset_scenario, sample, stats

EPS = 1e-12
DELTAS = (-1.0, 0.0, 0.5, 0.7, 1.0, 2.0)


# -- whole-array reference formulas -----------------------------------------


def ref_sigma(x):
    return x.astype(np.float64).std(axis=0)


def ref_sigma_hat(x):
    sigma = x.astype(np.float64).std(axis=0)
    total = float(sigma.sum())
    if total < EPS:
        return np.full(sigma.shape, 1.0 / sigma.size)
    return sigma / total


def ref_rho(x1, x2):
    a = x1.astype(np.float64)
    b = x2.astype(np.float64)
    dot = (a * b).sum(axis=0)
    n1sq = (a * a).sum(axis=0)
    n2sq = (b * b).sum(axis=0)
    ok = (np.sqrt(n1sq) >= EPS) & (np.sqrt(n2sq) >= EPS)
    rho = np.zeros_like(dot)
    np.divide(dot, np.sqrt(n1sq * n2sq), out=rho, where=ok)
    np.clip(rho, -1.0, 1.0, out=rho)
    return rho


def ref_merge(x1, x2, delta):
    averaged = ref_rho(x1, x2) >= delta
    winner = np.where(ref_sigma_hat(x2) > ref_sigma_hat(x1), 1, 0)
    avg = ((x1.astype(np.float64) + x2.astype(np.float64)) / 2.0).astype(np.float32)
    taken = np.where(winner[np.newaxis] == 0, x1, x2)
    return np.where(averaged[np.newaxis], avg, taken), np.where(averaged, AVERAGED, winner)


def ref_unmerge(x1, x2, eff, codes, renormalize):
    averaged = codes == AVERAGED
    if not renormalize:
        return tuple(np.where(averaged[np.newaxis], eff, x) for x in (x1, x2))
    sigmas = (ref_sigma(x1), ref_sigma(x2))
    datas = (x1, x2)
    out = []
    for i in (0, 1):
        own, own_sigma = datas[i], sigmas[i]
        win, win_sigma = datas[1 - i], sigmas[1 - i]
        rescalable = (codes == (1 - i)) & (win_sigma >= EPS)
        ratio = np.zeros_like(own_sigma)
        np.divide(own_sigma, win_sigma, out=ratio, where=rescalable)
        rescaled = (ratio[np.newaxis] * win.astype(np.float64)).astype(np.float32)
        inner = np.where(rescalable[np.newaxis], rescaled, own)
        out.append(np.where(averaged[np.newaxis], eff, inner))
    return tuple(out)


def ref_fold(xs, delta, renormalize):
    """The fold's f_eff and updated maps, pair by pair from ref_merge and ref_unmerge."""
    running, updated = xs[0], list(xs)
    for i, x in enumerate(xs[1:], start=1):
        eff, codes = ref_merge(running, x, delta)
        first, updated[i] = ref_unmerge(running, x, eff, codes, renormalize)
        running = eff
    updated[0] = first  # only the last pair's update of the running chain is kept
    return running, updated


# -- inputs -------------------------------------------------------------------


def branch_pair(seed, shape, offset):
    """Two float32 branches; half the locations of the second echo the first."""
    rng = np.random.default_rng(seed)
    x1 = offset + rng.normal(size=shape)
    x2 = offset + rng.normal(size=shape)
    echo = rng.random(shape[1:]) < 0.5
    x2[:, echo] = x1[:, echo] + 0.05 * rng.normal(size=(shape[0], int(echo.sum())))
    return x1.astype(np.float32), x2.astype(np.float32)


shapes = st.tuples(st.integers(1, 24), st.integers(1, 11), st.integers(1, 5))
offsets = st.sampled_from([0.0, 1e4])


def small_blocks(shape, rows):
    """Shrink the block budget so blocks hold `rows` rows (at least 2)."""
    c, _, w = shape
    return mock.patch.object(stats, "_BLOCK_BYTES", 8 * c * w * rows)


def small_slabs(shape, channels):
    """Shrink the block budget so channel slabs hold `channels` channels."""
    _, h, w = shape
    return mock.patch.object(stats, "_BLOCK_BYTES", 8 * h * w * channels)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_maps_bit_identical(x1, x2):
    f1, f2 = FeatureMap(x1), FeatureMap(x2)
    for x, f in ((x1, f1), (x2, f2)):
        assert same_bytes(channel_std_map(f).data, ref_sigma(x))
        assert same_bytes(normalized_std_map(f).data, ref_sigma_hat(x))
    assert same_bytes(correlation_map(f1, f2).data, ref_rho(x1, x2))
    res = merge_pair(f1, f2)
    assert same_bytes(res.rho.data, ref_rho(x1, x2))
    for i, x in enumerate((x1, x2)):
        assert same_bytes(res.sigma[i].data, ref_sigma(x))
        assert same_bytes(res.sigma_hat[i].data, ref_sigma_hat(x))


# -- tests ------------------------------------------------------------------


class TestRowBlocks:
    @settings(max_examples=200, deadline=None)
    @given(shape=shapes, rows=st.integers(1, 6))
    def test_blocks_tile_rows_without_lone_locations(self, shape, rows):
        c, h, w = shape
        with small_blocks(shape, rows):
            blocks = stats._row_blocks(c, h, w)
        assert blocks[0].start == 0 and blocks[-1].stop == h
        for prev, nxt in zip(blocks, blocks[1:]):
            assert prev.stop == nxt.start
        for b in blocks:
            assert b.stop - b.start >= 1
            # a one-location block would be reduced pairwise, not sequentially
            assert (b.stop - b.start) * w > 1 or h * w == 1

    def test_real_budget_is_about_one_mebibyte(self):
        blocks = stats._row_blocks(320, 64, 64)
        rows = blocks[0].stop - blocks[0].start
        assert 320 * rows * 64 * 8 <= stats._BLOCK_BYTES < 320 * (rows + 1) * 64 * 8


class TestStatisticsBitIdentical:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**31), shape=shapes, rows=st.integers(1, 4), offset=offsets)
    def test_random_shapes_and_blockings(self, seed, shape, rows, offset):
        x1, x2 = branch_pair(seed, shape, offset)
        with small_blocks(shape, rows):
            assert_maps_bit_identical(x1, x2)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), h=st.integers(2, 9), w=st.integers(1, 4))
    def test_single_channel(self, seed, h, w):
        x1, x2 = branch_pair(seed, (1, h, w), 0.0)
        with small_blocks((1, h, w), 2):
            assert_maps_bit_identical(x1, x2)

    def test_large_offset_keeps_two_pass_sigma(self):
        # 1e4 plus unit noise: E[x^2] - E[x]^2 would lose most digits here
        x1, x2 = branch_pair(3, (64, 7, 3), 1e4)
        with small_blocks(x1.shape, 2):
            assert_maps_bit_identical(x1, x2)
        sigma = channel_std_map(FeatureMap(x1)).data
        assert np.all(np.abs(sigma - 1.0) < 0.3)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), c=st.integers(1, 300), offset=offsets)
    def test_single_location(self, seed, c, offset):
        # H*W = 1: numpy reduces the lone location pairwise, not in channel order
        assert_maps_bit_identical(*branch_pair(seed, (c, 1, 1), offset))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), c=st.integers(1, 300), h=st.integers(2, 9))
    def test_single_column(self, seed, c, h):
        x1, x2 = branch_pair(seed, (c, h, 1), 0.0)
        with small_blocks(x1.shape, 2):
            assert_maps_bit_identical(x1, x2)
        assert_maps_bit_identical(x1, x2)

    @pytest.mark.parametrize("shape", [(4, 1, 1), (4, 1, 3), (4, 3, 1), (4, 2, 2)])
    def test_signed_zero_products(self, shape):
        # orthogonal channel vectors whose every product is -0.0 (one factor
        # zero, the other of opposite sign), next to locations of +0.0 products
        c, h, w = shape
        n = h * w
        x1 = np.zeros((c, n), dtype=np.float32)
        x2 = np.zeros((c, n), dtype=np.float32)
        x1[0::2], x2[1::2] = 1.5, -2.0  # products 1.5 * -0.0 and 0.0 * -2.0
        x2[0::2] = -0.0
        x1[:, 1::2] = -x1[:, 1::2]  # here the products are +0.0
        x1, x2 = x1.reshape(shape), x2.reshape(shape)
        assert np.all((x1.astype(np.float64) * x2) == 0.0)
        assert_maps_bit_identical(x1, x2)
        assert_maps_bit_identical(x2, x1)

    def test_real_budget_with_short_tail_block(self):
        # 1 MiB blocks of 6 rows at C=320, W=64; H = 37 leaves a 1-row tail
        x1, x2 = branch_pair(4, (320, 37, 64), 0.0)
        assert len(stats._row_blocks(*x1.shape)) == 7
        assert_maps_bit_identical(x1, x2)


class TestFusionBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        shape=shapes,
        rows=st.integers(1, 4),
        offset=offsets,
        delta=st.sampled_from(DELTAS),
        renormalize=st.booleans(),
    )
    def test_merge_and_unmerge_match_whole_array_formulas(
        self, seed, shape, rows, offset, delta, renormalize
    ):
        x1, x2 = branch_pair(seed, shape, offset)
        f1, f2 = FeatureMap(x1), FeatureMap(x2)
        with small_blocks(shape, rows):
            res = merge_pair(f1, f2, delta)
            u1, u2 = unmerge_pair(f1, f2, res, renormalize=renormalize)
        eff, codes = ref_merge(x1, x2, delta)
        assert same_bytes(res.f_eff.data, eff)
        assert np.array_equal(res.selection.codes, codes)
        e1, e2 = ref_unmerge(x1, x2, eff, codes, renormalize)
        assert same_bytes(u1.data, e1)
        assert same_bytes(u2.data, e2)

    @pytest.mark.parametrize("renormalize", [True, False])
    def test_zero_sigma_winner_and_loser(self, renormalize):
        # columns: constant winner (loser kept), constant loser (zero vector)
        x1 = np.array([[[3.0, 1.0]], [[3.0, -1.0]]], dtype=np.float32)
        x2 = np.array([[[2.0, 5.0]], [[2.0, 5.0]]], dtype=np.float32)
        f1, f2 = FeatureMap(x1), FeatureMap(x2)
        res = merge_pair(f1, f2, 2.0)
        u1, u2 = unmerge_pair(f1, f2, res, renormalize=renormalize)
        e1, e2 = ref_unmerge(x1, x2, res.f_eff.data, res.selection.codes, renormalize)
        assert same_bytes(u1.data, e1)
        assert same_bytes(u2.data, e2)

    def test_unmerge_rejects_sigma_of_another_shape(self):
        f1, f2 = (FeatureMap(x) for x in branch_pair(5, (3, 4, 4), 0.0))
        other = merge_pair(*(FeatureMap(x) for x in branch_pair(6, (3, 4, 5), 0.0)))
        res = merge_pair(f1, f2)
        bad = type(res)(res.f_eff, res.selection, res.rho, res.sigma_hat, other.sigma)
        with pytest.raises(ValueError, match="sigma shape mismatch"):
            unmerge_pair(f1, f2, bad)


# -- the block runner ---------------------------------------------------------

# the ladder sites whose maps span several 1 MiB blocks (11, 6 and 3)
LADDER_SHAPES = [(320, 64, 64), (640, 32, 32), (1280, 16, 16)]


def ref_mean(x1, x2):
    return ((x1.astype(np.float64) + x2.astype(np.float64)) / 2.0).astype(np.float32)


def assert_pair_pass_bit_identical(x1, x2):
    rho, sigma1, sigma2, mean = stats._pair_pass(x1, x2)
    assert same_bytes(rho, ref_rho(x1, x2))
    assert same_bytes(sigma1, ref_sigma(x1))
    assert same_bytes(sigma2, ref_sigma(x2))
    assert same_bytes(mean, ref_mean(x1, x2))


def helper_and_caller(caller_block, helper_block):
    """A block body that runs caller_block on the calling thread, helper_block elsewhere.

    The caller's first block waits until a helper has begun one, so a helper
    always takes part however fast the caller is.
    """
    caller, started = threading.current_thread(), threading.Event()

    def fn(rows, *casts):
        if threading.current_thread() is caller:
            assert started.wait(10)
            caller_block(rows)
        else:
            started.set()
            helper_block(rows)

    return fn


# the runner's two kinds of part, 20 of each: row blocks with their casts, channel slabs
RUNS = {
    "row_blocks": lambda fn: stats._each_block(fn, np.zeros((1, 40, 2), np.float32)),
    "slabs": lambda fn: stats._each(fn, stats._slabs(40, 1, 2)),
}


def n_workers(n):
    """Run each map's blocks on up to n threads, whatever this host's CPU count."""
    return mock.patch.object(stats, "_WORKERS", n)


class TestBlockRunner:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("shape", LADDER_SHAPES)
    def test_ladder_shapes_bit_identical(self, shape, workers):
        assert len(stats._row_blocks(*shape)) >= workers
        x1, x2 = branch_pair(8, shape, 0.0)
        with n_workers(workers):
            assert_maps_bit_identical(x1, x2)
            assert_pair_pass_bit_identical(x1, x2)

    @pytest.mark.parametrize("workers", [2, 3])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), shape=shapes, rows=st.integers(1, 4), offset=offsets)
    def test_small_shapes_in_many_blocks_bit_identical(self, workers, seed, shape, rows, offset):
        x1, x2 = branch_pair(seed, shape, offset)
        with small_blocks(shape, rows), n_workers(workers):
            assert_maps_bit_identical(x1, x2)
            assert_pair_pass_bit_identical(x1, x2)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_block_runs_once(self, workers):
        done = []
        with small_blocks((1, 40, 2), 2), n_workers(workers):
            stats._each_block(lambda rows, a: done.append(rows), np.zeros((1, 40, 2), np.float32))
            blocks = stats._row_blocks(1, 40, 2)
        assert sorted(done, key=lambda rows: rows.start) == blocks

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_part_runs_once(self, workers):
        done, numbers = [], []
        with small_slabs((40, 1, 2), 2), n_workers(workers):
            slabs = stats._slabs(40, 1, 2)
            stats._each(done.append, slabs)
            stats._each(numbers.append, list(range(7)))  # a part of 0 is a part too
        assert len(slabs) == 20
        assert sorted(done, key=lambda ch: ch.start) == slabs
        assert sorted(numbers) == list(range(7))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_block_may_write_its_casts(self, workers):
        x = np.arange(80.0).reshape(1, 40, 2)
        before, x32, seen = x.copy(), x.astype(np.float32), []

        def fn(rows, a, b):
            seen.append(same_bytes(a, x[:, rows]) and same_bytes(b, x[:, rows]))
            a.fill(-1.0)
            b.fill(-1.0)

        with small_blocks(x.shape, 2), n_workers(workers):
            stats._each_block(fn, x, x32)
        assert len(seen) == 20 and all(seen)
        assert same_bytes(x, before) and same_bytes(x32, before.astype(np.float32))

    @pytest.mark.parametrize("run", RUNS)
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("raiser", ["helper", "caller"])
    def test_exception_reaches_the_caller_after_every_helper_joined(self, workers, raiser, run):
        def fail(rows):
            raise KeyError(rows.start)

        def linger(rows):
            time.sleep(0.2)  # still running when the other thread fails

        def fail_late(rows):
            linger(rows)
            fail(rows)

        blocks = {"caller": (fail, linger), "helper": (lambda rows: None, fail_late)}
        fn = helper_and_caller(*blocks[raiser])
        before = set(threading.enumerate())
        with small_blocks((1, 40, 2), 2), n_workers(workers), pytest.raises(KeyError):
            RUNS[run](fn)
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("run", RUNS)
    @pytest.mark.parametrize("workers", [2, 3])
    def test_helpers_see_the_callers_errstate(self, workers, run):
        seen = []
        fn = helper_and_caller(lambda rows: None, lambda rows: seen.append(np.geterr()["over"]))
        with small_blocks((1, 40, 2), 2), n_workers(workers), np.errstate(over="raise"):
            RUNS[run](fn)
        assert seen and set(seen) == {"raise"}

    def test_one_block_maps_start_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a one-block map started a thread")

        monkeypatch.setattr(stats, "_WORKERS", 3)
        monkeypatch.setattr(threading, "Thread", no_thread)
        x1, x2 = branch_pair(9, (1280, 8, 8), 0.0)
        assert len(stats._row_blocks(*x1.shape)) == 1
        assert_maps_bit_identical(x1, x2)
        f1, f2 = (FeatureMap(x) for x in branch_pair(10, (8, 16, 16), 0.0))
        merge_pair(f1, f2)
        sample(preset_scenario("three_way"))


# -- the slab pass: merge_pair's select and the unmerge rescale -----------------

FLT_MAX = float(np.finfo(np.float32).max)


def references(xs, delta):
    """ref_merge of the first two of xs, ref_unmerge of that pair and ref_fold of all three."""
    eff, codes = ref_merge(xs[0], xs[1], delta)
    unmerged = {r: ref_unmerge(xs[0], xs[1], eff, codes, r) for r in (True, False)}
    folded = {r: ref_fold(xs, delta, r) for r in (True, False)}
    return (eff, codes), unmerged, folded


def assert_pair_and_fold_bit_identical(xs, merged, unmerged, folded, delta=0.7):
    fs = [FeatureMap(x) for x in xs]
    res = merge_pair(fs[0], fs[1], delta)
    assert same_bytes(res.f_eff.data, merged[0])
    assert np.array_equal(res.selection.codes, merged[1])
    for renormalize in (True, False):
        got = unmerge_pair(fs[0], fs[1], res, renormalize=renormalize)
        for u, want in zip(got, unmerged[renormalize]):
            assert same_bytes(u.data, want)
        fold = maxfusion_fold(fs, delta, renormalize=renormalize)
        eff, updated = folded[renormalize]
        assert same_bytes(fold.f_eff.data, eff)
        for u, want in zip(fold.updated, updated, strict=True):
            assert same_bytes(u.data, want)


def overflow_in_later_slabs(c=6, low=2):
    """(loud, quiet): c x 1 x 2 maps whose unmerge overflows in channels `low` and up only.

    quiet wins location 0 with a spread about 1e-3 of its level m, and loud's
    rescale ratio there is FLT_MAX / m: so quiet's channels at m - d stay finite
    and those at m + d overflow.  At location 1 quiet is constant and loses.
    """
    m, d = 1e30, 1e27
    q0 = np.array([m - d] * low + [m + d] * (c - low))
    quiet = np.stack([q0, np.ones(c)], axis=-1)
    sign = np.resize([1.0, -1.0], c)[:, None]
    loud = sign * (FLT_MAX / m * q0.std()) * np.ones((c, 2))
    return FeatureMap(loud.reshape(c, 1, 2)), FeatureMap(quiet.reshape(c, 1, 2))


def helpers_first(ran):
    """A stand-in for stats._each whose caller runs its one part after helpers ran every other.

    Appends (part, whether a helper ran it) to ran.
    """

    def each(fn, parts):
        caller, others_done = threading.current_thread(), threading.Event()

        def part_fn(part):
            on_helper = threading.current_thread() is not caller
            if not on_helper:
                assert others_done.wait(10)
            fn(part)
            ran.append((part, on_helper))
            if on_helper and len(ran) >= len(parts) - 1:
                others_done.set()

        stats._each(part_fn, parts)

    return each


class TestSlabPass:
    @pytest.mark.parametrize("shape", LADDER_SHAPES)
    def test_ladder_shapes_bit_identical(self, shape):
        xs = (*branch_pair(11, shape, 0.0), branch_pair(12, shape, 0.0)[1])
        refs = references(xs, 0.7)
        # 1 MiB slabs (10, 5 and 3 of them) and 7-channel slabs, on 1, 2 and 3 threads
        for channels in (None, 7):
            for workers in (1, 2, 3):
                slabs = small_slabs(shape, channels) if channels else contextlib.nullcontext()
                with slabs, n_workers(workers):
                    assert len(stats._slabs(*shape)) >= 3
                    assert_pair_and_fold_bit_identical(xs, *refs)

    @pytest.mark.parametrize("workers", [2, 3])
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        shape=st.tuples(st.integers(2, 24), st.integers(4, 11), st.integers(1, 5)),
        rows=st.integers(1, 2),
        offset=offsets,
        delta=st.sampled_from(DELTAS),
    )
    def test_many_slabs_per_map_bit_identical(self, workers, seed, shape, rows, offset, delta):
        xs = (*branch_pair(seed, shape, offset), branch_pair(seed + 1, shape, offset)[1])
        refs = references(xs, delta)
        with small_blocks(shape, rows), n_workers(workers):
            assert len(stats._slabs(*shape)) >= 2
            assert_pair_and_fold_bit_identical(xs, *refs, delta)

    @settings(max_examples=200, deadline=None)
    @given(shape=shapes, channels=st.integers(1, 30))
    def test_slabs_cover_every_channel_once_in_order(self, shape, channels):
        with small_slabs(shape, channels):
            slabs = stats._slabs(*shape)
        assert [ch for s in slabs for ch in range(shape[0])[s]] == list(range(shape[0]))
        assert all(s.stop - s.start == min(channels, shape[0]) for s in slabs[:-1])

    def test_real_budget_is_about_one_mebibyte(self):
        slabs = stats._slabs(320, 64, 64)
        assert len(slabs) == 10 and slabs[0] == slice(0, 32)
        assert 32 * 64 * 64 * 8 == stats._BLOCK_BYTES
        assert stats._slabs(1280, 8, 8) == [slice(0, 1280)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_overflow_first_seen_in_a_later_slab_reports_the_whole_map_index(self, workers):
        loud, quiet = overflow_in_later_slabs()
        res = merge_pair(loud, quiet)
        np.testing.assert_array_equal(res.selection.codes, [[1, 0]])
        with small_slabs(loud.shape, 1 << 30), n_workers(1), pytest.raises(ValueError) as whole:
            unmerge_pair(loud, quiet, res)
        # channel 2 at location 0 of a 6 x 1 x 2 map is flat index 4
        assert str(whole.value) == (
            "unmerge overflowed float32 rescaling branch 0 (non-finite value at index 4)"
        )
        with small_slabs(loud.shape, 2), n_workers(workers), pytest.raises(ValueError) as slabs:
            assert len(stats._slabs(*loud.shape)) == 3
            unmerge_pair(loud, quiet, res)
        assert str(slabs.value) == str(whole.value)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_overflow_in_a_helpers_slab_reports_the_whole_map_index(self, workers, monkeypatch):
        loud, quiet = overflow_in_later_slabs()
        res = merge_pair(loud, quiet)
        ran = []
        monkeypatch.setattr(fusion, "_each", helpers_first(ran))
        with small_slabs(loud.shape, 2), n_workers(workers), pytest.raises(
            ValueError, match=r"^unmerge overflowed float32 rescaling branch 0 "
                              r"\(non-finite value at index 4\)$"
        ):
            unmerge_pair(loud, quiet, res)
        # slabs 1 and 2 overflow; the caller ran at most one of them
        assert any(helper and ch.start >= 2 for ch, helper in ran)

    def test_an_overflow_in_one_of_many_slabs_is_never_lost(self):
        # 8 threads on 64 one-channel slabs, switching often: only the last slab
        # overflows, and each run must still report it
        loud, quiet = overflow_in_later_slabs(c=64, low=63)
        res = merge_pair(loud, quiet)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with small_slabs(loud.shape, 1), n_workers(8):
                for _ in range(20):
                    with pytest.raises(ValueError, match=r"\(non-finite value at index 126\)$"):
                        unmerge_pair(loud, quiet, res)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n_branches", [2, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_fold_reports_branch_0_when_both_slots_of_the_last_pair_overflow(
        self, workers, n_branches, monkeypatch
    ):
        # A real merge cannot make both slots overflow.  A rescale overflows only with
        # a ratio sigma_loser / sigma_winner above 1, and since the winner's sigma_hat
        # is the larger, that needs the loser's sigma sum to be the larger; the two
        # slots cannot both have the larger sum.  So the last pair's result is built
        # by hand: each slot loses one location to a vector near 1e38, at ratio 10.
        branches = [FeatureMap(np.full((6, 1, 2), 1e38, np.float32))] * n_branches
        sigma = (SpatialMap(np.array([[10.0, 1.0]])), SpatialMap(np.array([[1.0, 10.0]])))
        last = PairFusionResult(
            f_eff=branches[0],
            selection=SelectionMask(np.array([[1, 0]])),
            rho=SpatialMap(np.zeros((1, 2))),
            sigma_hat=sigma,
            sigma=sigma,
        )
        first = merge_pair(branches[0], branches[1])
        monkeypatch.setattr(fusion, "_merge_chain", lambda *args: (first, last)[3 - n_branches:])
        with small_slabs(branches[0].shape, 1), n_workers(workers), pytest.raises(
            ValueError, match=rf"^unmerge of pair {n_branches - 1} overflowed float32 rescaling "
                              r"branch 0 \(non-finite value at index 0\)$"
        ):
            maxfusion_fold(branches)
        with small_slabs(branches[0].shape, 1), n_workers(workers), pytest.raises(
            ValueError, match=r"^unmerge overflowed float32 rescaling branch 0 "
        ):
            unmerge_pair(branches[0], branches[1], last)

    def test_one_slab_maps_start_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a one-slab map started a thread")

        x1, x2 = branch_pair(13, (1280, 8, 8), 0.0)
        x3 = branch_pair(14, (1280, 8, 8), 0.0)[1]
        monkeypatch.setattr(stats, "_WORKERS", 3)
        monkeypatch.setattr(threading, "Thread", no_thread)
        assert len(stats._slabs(*x1.shape)) == 1 and len(stats._row_blocks(*x1.shape)) == 1
        f1, f2, f3 = (FeatureMap(x) for x in (x1, x2, x3))
        res = merge_pair(f1, f2)
        assert np.any(res.selection.codes >= 0)  # the select ran
        for renormalize in (True, False):
            unmerge_pair(f1, f2, res, renormalize=renormalize)
            maxfusion_fold([f1, f2, f3], renormalize=renormalize)
