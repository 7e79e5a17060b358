import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxfusion import (
    FeatureMap,
    FusionConfig,
    channel_std_map,
    correlation_map,
    make_feature_map,
    merge_pair,
    normalized_std_map,
)


def random_map(seed, shape=(8, 4, 4)) -> FeatureMap:
    rng = np.random.default_rng(seed)
    return FeatureMap(rng.normal(size=shape).astype(np.float32))


def single_location(*channel_values) -> FeatureMap:
    return make_feature_map(len(channel_values), 1, 1, channel_values)


class TestChannelStd:
    def test_two_channel_analytic(self):
        # channels (1, 3): mean 2, deviations +-1, population std 1
        assert channel_std_map(single_location(1.0, 3.0)).data[0, 0] == 1.0

    def test_constant_vector_is_zero(self):
        assert channel_std_map(single_location(5.0, 5.0, 5.0, 5.0)).data[0, 0] == 0.0

    def test_population_not_sample_estimator(self):
        # C=1 must be well-defined with sigma = 0
        assert channel_std_map(single_location(3.0)).data[0, 0] == 0.0

    def test_matches_scalar_loop_oracle(self):
        fm = random_map(7)
        np.testing.assert_allclose(
            channel_std_map(fm).data, oracles.channel_std(fm.data), atol=1e-6
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), shift=st.floats(-50, 50))
    def test_shift_invariance(self, seed, shift):
        fm = random_map(seed, shape=(6, 3, 3))
        shifted = FeatureMap(fm.data + np.float32(shift))
        np.testing.assert_allclose(
            channel_std_map(shifted).data, channel_std_map(fm).data, atol=1e-5
        )


class TestNormalizedStd:
    def test_two_location_analytic(self):
        # sigma = (1, 3) across two locations -> sigma_hat = (0.25, 0.75)
        fm = make_feature_map(2, 1, 2, [1.0, 3.0, 3.0, 9.0])
        np.testing.assert_allclose(normalized_std_map(fm).data, [[0.25, 0.75]])

    def test_constant_map_degenerates_to_uniform(self):
        fm = FeatureMap(np.full((4, 2, 3), 2.5, dtype=np.float32))
        np.testing.assert_array_equal(normalized_std_map(fm).data, np.full((2, 3), 1.0 / 6.0))

    def test_sums_to_one(self):
        total = normalized_std_map(random_map(3)).data.sum()
        assert abs(total - 1.0) < 1e-5

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), scale=st.floats(1e-3, 1e3))
    def test_positive_scale_invariance(self, seed, scale):
        fm = random_map(seed, shape=(5, 4, 3))
        scaled = FeatureMap(fm.data * np.float32(scale))
        np.testing.assert_allclose(
            normalized_std_map(scaled).data, normalized_std_map(fm).data, atol=1e-6
        )

    def test_matches_scalar_loop_oracle(self):
        fm = random_map(11)
        np.testing.assert_allclose(
            normalized_std_map(fm).data, oracles.normalized_std(fm.data), atol=1e-6
        )


class TestCorrelation:
    def test_identical_vectors(self):
        f = single_location(1.0, 2.0)
        assert correlation_map(f, f).data[0, 0] == 1.0

    def test_orthogonal_and_antiparallel(self):
        assert correlation_map(single_location(1, 0), single_location(0, 1)).data[0, 0] == 0.0
        assert correlation_map(single_location(1, 0), single_location(-1, 0)).data[0, 0] == -1.0

    def test_zero_vector_degenerates_to_zero(self):
        assert correlation_map(single_location(0, 0), single_location(3, 4)).data[0, 0] == 0.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 1, 1\) vs \(2, 1, 2\)"):
            correlation_map(single_location(1, 2), make_feature_map(2, 1, 2, [1, 2, 3, 4]))

    def test_always_within_unit_interval(self):
        rho = correlation_map(random_map(5), random_map(6)).data
        assert rho.min() >= -1.0
        assert rho.max() <= 1.0

    def test_matches_scalar_loop_oracle(self):
        f1, f2 = random_map(20), random_map(21)
        np.testing.assert_allclose(
            correlation_map(f1, f2).data, oracles.correlation(f1.data, f2.data), atol=1e-6
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_per_location_rescale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        f1 = FeatureMap(rng.normal(size=(6, 4, 4)).astype(np.float32))
        f2 = FeatureMap(rng.normal(size=(6, 4, 4)).astype(np.float32))
        c1 = rng.uniform(0.1, 10.0, size=(4, 4)).astype(np.float32)
        c2 = rng.uniform(0.1, 10.0, size=(4, 4)).astype(np.float32)
        base = correlation_map(f1, f2).data
        scaled = correlation_map(
            FeatureMap(f1.data * c1), FeatureMap(f2.data * c2)
        ).data
        np.testing.assert_allclose(scaled, base, atol=1e-5)


class TestStatsConfig:
    """The zero-signal guard: stats.EPSILON_NORM and FusionConfig.epsilon_norm."""

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="epsilon_norm"):
            FusionConfig(epsilon_norm=0.0)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_epsilon_must_be_finite(self, eps):
        # an infinite guard would count every location as zero signal
        with pytest.raises(ValueError, match="epsilon_norm"):
            FusionConfig(epsilon_norm=eps)

    def test_epsilon_routes_small_norms_to_zero(self):
        tiny = single_location(1e-20, 0.0)
        other = single_location(1.0, 1.0)
        assert correlation_map(tiny, other).data[0, 0] == 0.0
        assert merge_pair(tiny, other).rho.data[0, 0] == 0.0
        loose = FusionConfig(epsilon_norm=1e-30)
        assert merge_pair(tiny, other, loose).rho.data[0, 0] != 0.0
