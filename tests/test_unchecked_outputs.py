"""The outputs the library wraps without a check, at the edges of their inputs.

Merge, naive_average, the statistics maps, tag_map and a spatial map read
from an MXFT stream hand their arrays to ``_adopt``, which checks nothing.
These tests pin why no check is needed: for any finite float32 input, each
output is finite, in its range, and of its container's dtype and rank.
"""

import io

import numpy as np
import pytest

from maxfusion import (
    AVERAGED,
    FeatureMap,
    SelectionMask,
    SpatialMap,
    branch_encode,
    channel_std_map,
    correlation_map,
    merge_pair,
    naive_average,
    normalized_std_map,
    preset_scenario,
    read_spatial_map,
    read_tensor,
    unmerge_pair,
    write_tensor,
)
from maxfusion.stats import EPSILON_NORM

F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
SHAPE = (4, 3, 3)


def _signs(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).choice([-1.0, 1.0], size=SHAPE)


def _map(values) -> FeatureMap:
    return FeatureMap(np.asarray(values, dtype=np.float32))


def _mixed(seed: int) -> FeatureMap:
    """Every element one of +-float32 max, +-the smallest subnormal, or 0."""
    choices = np.array([F32_MAX, -F32_MAX, F32_TINY, -F32_TINY, 0.0])
    return _map(np.random.default_rng(seed).choice(choices, size=SHAPE))


def _max_pair() -> tuple[FeatureMap, FeatureMap]:
    """+-float32 max with both signs mixed; one location parallel, one antiparallel."""
    s1, s2 = _signs(1), _signs(2)
    s2[:, 0, 0] = s1[:, 0, 0]
    s2[:, 0, 1] = -s1[:, 0, 1]
    return _map(F32_MAX * s1), _map(F32_MAX * s2)


PAIRS = {
    "max": _max_pair(),
    "subnormal": (_map(F32_TINY * _signs(3)), _map(F32_TINY * _signs(4))),
    "zero": (_map(np.zeros(SHAPE)), _map(np.zeros(SHAPE))),
    "max_vs_zero": (_map(F32_MAX * _signs(5)), _map(np.zeros(SHAPE))),
    "max_vs_subnormal": (_map(F32_MAX * _signs(6)), _map(F32_TINY * _signs(7))),
    "mixed": (_mixed(8), _mixed(9)),
}
#: the zero-signal threshold that the merge reads
EPSILONS = (EPSILON_NORM,)


def _finite(sm: SpatialMap) -> np.ndarray:
    assert np.isfinite(sm.data).all()
    return sm.data


@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("delta", [-1.0, 0.7, 2.0])
@pytest.mark.parametrize("eps", EPSILONS)
def test_merge_outputs_finite_and_in_range(pair, delta, eps):
    f1, f2 = PAIRS[pair]
    res = merge_pair(f1, f2, delta)
    # f_eff holds an input vector, or the float64 mean of two, rounded to float32
    mean = ((f1.data.astype(np.float64) + f2.data) / 2.0).astype(np.float32)
    codes = res.selection.codes[np.newaxis]
    expected = np.where(codes == AVERAGED, mean, np.where(codes == 0, f1.data, f2.data))
    np.testing.assert_array_equal(res.f_eff.data, expected)
    assert np.isfinite(res.f_eff.data).all()
    rho = _finite(res.rho)
    assert ((rho >= -1.0) & (rho <= 1.0)).all()
    # where either channel vector's norm is below the threshold there is no signal to compare
    n1, n2 = (np.sqrt(np.square(f.data, dtype=np.float64).sum(axis=0)) for f in (f1, f2))
    assert (rho[(n1 < eps) | (n2 < eps)] == 0.0).all()
    for sigma, sigma_hat in zip(res.sigma, res.sigma_hat):
        assert (_finite(sigma) >= 0.0).all()
        assert (_finite(sigma_hat) >= 0.0).all()
        assert sigma_hat.data.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("pair", PAIRS)
def test_statistics_maps_finite_and_in_range(pair):
    f1, f2 = PAIRS[pair]
    rho = _finite(correlation_map(f1, f2))
    assert ((rho >= -1.0) & (rho <= 1.0)).all()
    for f in (f1, f2):
        sigma = _finite(channel_std_map(f))
        assert (sigma >= 0.0).all()
        assert _finite(normalized_std_map(f)).sum() == pytest.approx(1.0)


def test_zero_inputs_give_zero_sigma_uniform_sigma_hat_and_zero_rho():
    f1, f2 = PAIRS["zero"]
    res = merge_pair(f1, f2)
    h, w = SHAPE[1:]
    for sm in (channel_std_map(f1), *res.sigma):
        np.testing.assert_array_equal(sm.data, np.zeros((h, w)))
    for sm in (normalized_std_map(f1), *res.sigma_hat):
        np.testing.assert_array_equal(sm.data, np.full((h, w), 1.0 / (h * w)))
    for sm in (correlation_map(f1, f2), res.rho):
        np.testing.assert_array_equal(sm.data, np.zeros((h, w)))


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (1, 1, 1), (-1, -1, -1), (1, -1, 1)])
def test_naive_average_at_float32_max(signs):
    branches = [_map(np.full(SHAPE, s * F32_MAX)) for s in signs]
    out = naive_average(branches).data
    assert np.isfinite(out).all()
    mean = np.float32(F32_MAX * sum(signs) / len(signs))
    np.testing.assert_array_equal(out, np.full(SHAPE, mean))


def test_naive_average_at_float32_max_with_mixed_signs():
    branches = [_map(F32_MAX * _signs(seed)) for seed in (10, 11, 12)]
    stack = np.stack([b.data for b in branches]).astype(np.float64)
    out = naive_average(branches).data
    assert np.isfinite(out).all()
    np.testing.assert_array_equal(out, (stack.sum(axis=0) / 3).astype(np.float32))


def _mxft(fm: FeatureMap) -> io.BytesIO:
    buf = io.BytesIO()
    write_tensor(fm, buf)
    buf.seek(0)
    return buf


_F1, _F2 = (_map(np.random.default_rng(seed).normal(size=SHAPE)) for seed in (20, 21))
_SPATIAL = SpatialMap(np.arange(9.0).reshape(3, 3))
_SCENARIO = preset_scenario("contradictory")
#: each path that builds a container without a check
PRODUCERS = {
    "merge.f_eff": lambda: merge_pair(_F1, _F2).f_eff,
    "merge.selection": lambda: merge_pair(_F1, _F2).selection,
    "merge.rho": lambda: merge_pair(_F1, _F2).rho,
    "merge.sigma_hat": lambda: merge_pair(_F1, _F2).sigma_hat[1],
    "merge.sigma": lambda: merge_pair(_F1, _F2).sigma[1],
    "unmerge": lambda: unmerge_pair(_F1, _F2, merge_pair(_F1, _F2))[1],
    "naive_average": lambda: naive_average([_F1, _F2]),
    "channel_std_map": lambda: channel_std_map(_F1),
    "normalized_std_map": lambda: normalized_std_map(_F1),
    "normalized_std_map.uniform": lambda: normalized_std_map(PAIRS["zero"][0]),
    "correlation_map": lambda: correlation_map(_F1, _F2),
    "tag_map": lambda: SelectionMask(np.array([[AVERAGED, 1]])).tag_map(),
    "to_feature_map": _SPATIAL.to_feature_map,
    "read_spatial_map": lambda: read_spatial_map(_mxft(_SPATIAL.to_feature_map())),
    "read_tensor": lambda: read_tensor(_mxft(_F1)),
    "branch_encode": lambda: branch_encode(_SCENARIO, 0, np.zeros((16, 16))),
}
#: each container's dtype and rank
LAYOUT = {FeatureMap: (np.float32, 3), SpatialMap: (np.float64, 2), SelectionMask: (np.int32, 2)}


@pytest.mark.parametrize("name", PRODUCERS)
def test_each_producer_returns_its_containers_dtype_and_rank(name):
    container = PRODUCERS[name]()
    arr = container.codes if isinstance(container, SelectionMask) else container.data
    dtype, rank = LAYOUT[type(container)]
    assert arr.dtype == np.dtype(dtype) and arr.dtype.isnative
    assert arr.ndim == rank
    assert not arr.flags.writeable
