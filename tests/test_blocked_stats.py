"""Bit-identity of the row-blocked statistics kernel.

The references below are the whole-array formulas the blocked kernel
replaced, kept verbatim: every map the library computes must equal them
byte for byte (so a -0.0 where the reference has 0.0 fails), not merely
be close.  Small shapes are split into many blocks by shrinking the
block budget, so every edge of the blocking (a short tail block, a
one-row tail at W = 1, a single block) is reached without MB-sized
inputs.  The blocks of one map run on up to ``stats._WORKERS`` threads;
``TestBlockRunner`` sets that count, so the threaded path is checked on
a one-CPU host too.
"""

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
    channel_std_map,
    correlation_map,
    merge_pair,
    normalized_std_map,
    unmerge_pair,
)
from maxfusion import preset_scenario, sample, stats

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

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("raiser", ["helper", "caller"])
    def test_exception_reaches_the_caller_after_every_helper_joined(self, workers, raiser):
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
            stats._each_block(fn, np.zeros((1, 40, 2), np.float32))
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("workers", [2, 3])
    def test_helpers_see_the_callers_errstate(self, workers):
        seen = []
        fn = helper_and_caller(lambda rows: None, lambda rows: seen.append(np.geterr()["over"]))
        with small_blocks((1, 40, 2), 2), n_workers(workers), np.errstate(over="raise"):
            stats._each_block(fn, np.zeros((1, 40, 2), np.float32))
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
