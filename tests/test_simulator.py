import copy
import math
import re
import warnings
import weakref
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sampled_steps import sample_with_steps
from scenario_json import SUBSTITUTES, blamed_key, key_paths, small_scenario_dicts, substituted
from maxfusion import simulator
from maxfusion import (
    AVERAGED,
    Branch,
    FeatureMap,
    NoiseSchedule,
    Scenario,
    SpatialMap,
    analytic_score,
    branch_embedding,
    branch_encode,
    channel_std_map,
    condition_error,
    decode_guidance,
    make_feature_map,
    maxfusion_fold,
    naive_average,
    preset_scenario,
    run_ablation,
    sample,
    scenario_from_dict,
    scenario_to_dict,
)


def tiny_scenario(**overrides) -> Scenario:
    h = w = 6
    mask = np.zeros((h, w))
    mask[1:5, 1:3] = 1.0
    base = dict(
        height=h,
        width=w,
        channels=8,
        schedule=NoiseSchedule.linear(steps=10),
        branches=(
            Branch(mask=mask, target=np.full((h, w), 1.0), embedding=branch_embedding(8, 0)),
        ),
        seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


class TestNoiseSchedule:
    def test_linear_defaults(self):
        sched = NoiseSchedule.linear()
        assert sched.steps == 50
        assert sched.betas[0] == pytest.approx(1e-4)
        assert sched.betas[-1] == pytest.approx(0.02)

    def test_alpha_bar_strictly_decreasing(self):
        sched = NoiseSchedule.linear()
        assert np.all(np.diff(sched.alpha_bar) < 0)

    def test_betas_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="strictly in"):
            NoiseSchedule([0.5, 1.0])
        with pytest.raises(ValueError, match="strictly in"):
            NoiseSchedule([0.0])

    def test_alpha_bar_that_stops_decreasing_rejected(self):
        # 0.01**400 underflows to 0.0, so the cumulative products stop decreasing
        with pytest.raises(ValueError, match="^scenario field 'schedule.betas' must give strictly "):
            NoiseSchedule([0.99] * 400)

    def test_linear_beta_outside_unit_interval_names_its_key(self):
        with pytest.raises(ValueError, match=r"^scenario field 'schedule.beta_start' must be a "
                                             r"number in \(0, 1\), got 0.0$"):
            NoiseSchedule.linear(beta_start=0.0)

    @pytest.mark.parametrize("steps", [5, 50])
    def test_linear_float32_bounds_give_the_betas_of_their_float_values(self, steps):
        start, end = np.float32(1e-4), np.float32(0.02)
        got = NoiseSchedule.linear(steps, start, end).betas
        want = NoiseSchedule.linear(steps, float(start), float(end)).betas
        assert got.tobytes() == want.tobytes()


class TestAnalyticScore:
    def test_zero_at_scaled_prior_mean(self):
        sched = NoiseSchedule.linear(steps=10)
        mu = 1.3
        for t in (0, 4, 9):
            x = np.full((3, 3), math.sqrt(sched.alpha_bar[t]) * mu)
            np.testing.assert_array_equal(analytic_score(x, t, sched, mu, 0.8), 0.0)

    def test_degenerate_prior_limit(self):
        sched = NoiseSchedule.linear(steps=10)
        t = 3
        x = np.array([[0.7]])
        got = analytic_score(x, t, sched, prior_mean=0.0, prior_std=0.0)
        abar = sched.alpha_bar[t]
        np.testing.assert_allclose(got, -x / (1 - abar))

    def test_step_out_of_range(self):
        sched = NoiseSchedule.linear(steps=10)
        with pytest.raises(ValueError, match=r"out of range \[0, 10\)"):
            analytic_score(np.zeros((2, 2)), 10, sched)

    @pytest.mark.parametrize("t", [1.5, True, np.float64(2.0), "3"])
    def test_step_index_must_be_an_integer(self, t):
        sched = NoiseSchedule.linear(steps=10)
        message = f"step index must be an integer, got {t!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            analytic_score(np.zeros((2, 2)), t, sched)

    def test_matches_finite_difference_of_log_density(self):
        sched = NoiseSchedule.linear(steps=20)
        mu, sp = 0.4, 1.7
        rng = np.random.default_rng(0)

        def log_density(x, t):
            abar = sched.alpha_bar[t]
            mean = math.sqrt(abar) * mu
            var = abar * sp * sp + 1 - abar
            return -0.5 * (x - mean) ** 2 / var - 0.5 * math.log(2 * math.pi * var)

        for t in (0, 7, 19):
            x = rng.normal(size=(4, 4))
            h = 1e-5
            fd = (log_density(x + h, t) - log_density(x - h, t)) / (2 * h)
            got = analytic_score(x, t, sched, mu, sp)
            np.testing.assert_allclose(got, fd, rtol=1e-4)


class TestBranchEncode:
    def test_zero_outside_mask(self):
        scn = tiny_scenario()
        fm = branch_encode(scn, 0, np.zeros((6, 6)))
        outside = scn.branches[0].mask == 0
        assert np.all(fm.data[:, outside] == 0.0)
        assert np.all(channel_std_map(fm).data[outside] == 0.0)

    def test_zero_when_condition_satisfied(self):
        scn = tiny_scenario()
        fm = branch_encode(scn, 0, scn.branches[0].target.copy())
        np.testing.assert_array_equal(fm.data, 0.0)

    def test_hand_computed_vector_and_std(self):
        # mask 1, residual 2, strength 1, w = (1.6, 0.4) against u = (0.5, 0.5):
        # vector (3.2, 0.8) with channel std 1.2
        scn = Scenario(
            height=1,
            width=1,
            channels=2,
            schedule=NoiseSchedule.linear(steps=5),
            branches=(
                Branch(
                    mask=np.ones((1, 1)),
                    target=np.full((1, 1), 2.0),
                    embedding=np.array([1.6, 0.4]),
                ),
            ),
        )
        fm = branch_encode(scn, 0, np.zeros((1, 1)))
        np.testing.assert_allclose(fm.data.ravel(), [3.2, 0.8], atol=1e-6)
        assert channel_std_map(fm).data[0, 0] == pytest.approx(1.2, abs=1e-6)

    def test_std_tracks_condition_violation_inside_mask(self):
        scn = tiny_scenario()
        rng = np.random.default_rng(5)
        x0_hat = rng.normal(size=(6, 6))
        fm = branch_encode(scn, 0, x0_hat)
        sigma = channel_std_map(fm).data
        inside = scn.branches[0].mask > 0
        assert sigma[~inside].max() == 0.0
        assert sigma[inside].min() > 0.0
        expected = np.abs(scn.branches[0].target - x0_hat)[inside] * 0.5  # std(w) = 0.5
        np.testing.assert_allclose(sigma[inside], expected, atol=1e-6)
        # a violation past float32 is rejected by index, without a cast warning first, also
        # outside sample(); the sampler's divergence message wraps this text
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^non-finite value at index \d+$"):
                branch_encode(preset_scenario("contradictory"), 0, np.full((16, 16), -1e300))


    @pytest.mark.parametrize(
        "b, x0_hat, message",
        [
            (-1, np.zeros((16, 16)), "branch index -1 out of range [0, 3)"),
            (3, np.zeros((16, 16)), "branch index 3 out of range [0, 3)"),
            (1.0, np.zeros((16, 16)), "branch index must be an integer, got 1.0"),
            (True, np.zeros((16, 16)), "branch index must be an integer, got True"),
            (0, np.zeros(16), "x0_hat shape (16,) != scenario grid (16, 16)"),
            (0, 0.0, "x0_hat shape () != scenario grid (16, 16)"),
        ],
        ids=["negative", "past-the-end", "float", "bool", "row", "scalar"],
    )
    def test_branch_index_and_estimate_shape_checked(self, b, x0_hat, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            branch_encode(preset_scenario("three_way"), b, x0_hat)


class TestDecodeGuidance:
    def test_recovers_single_branch_signal(self):
        scn = tiny_scenario()
        x0_hat = np.random.default_rng(1).normal(size=(6, 6))
        fm = branch_encode(scn, 0, x0_hat)
        g = decode_guidance(fm)
        br = scn.branches[0]
        np.testing.assert_allclose(
            g, br.strength * br.mask * (br.target - x0_hat), atol=1e-6
        )

    def test_zero_features_decode_to_zero(self):
        scn = tiny_scenario()
        fm = branch_encode(scn, 0, scn.branches[0].target.copy())
        np.testing.assert_array_equal(decode_guidance(fm), 0.0)

    def test_linearity(self):
        scn = tiny_scenario(
            branches=(
                tiny_scenario().branches[0],
                Branch(
                    mask=np.ones((6, 6)),
                    target=np.full((6, 6), -1.0),
                    embedding=branch_embedding(8, 1),
                ),
            )
        )
        x0_hat = np.random.default_rng(2).normal(size=(6, 6))
        f0 = branch_encode(scn, 0, x0_hat)
        f1 = branch_encode(scn, 1, x0_hat)
        avg = naive_average([f0, f1])
        lhs = decode_guidance(avg)
        rhs = (decode_guidance(f0) + decode_guidance(f1)) / 2
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


class TestEmbeddings:
    def test_readout_identity_and_spread(self):
        for c in (4, 8, 16, 6, 10, simulator.MAX_CHANNELS):
            u = np.full(c, 1.0 / c)  # the uniform read-out decode_guidance uses
            for idx in range(3):
                w = branch_embedding(c, idx)
                assert abs(float(u @ w) - 1.0) < 1e-6
                assert w.std() > 0.4

    def test_power_of_two_embeddings_have_exact_cosine(self):
        w0, w1 = branch_embedding(8, 0), branch_embedding(8, 1)
        cos = float(w0 @ w1 / math.sqrt((w0 @ w0) * (w1 @ w1)))
        assert cos == 0.8

    @pytest.mark.parametrize(
        "channels, index, message",
        [
            (8.0, 0, "channels must be an integer, got 8.0"),
            (8, True, "index must be an integer, got True"),
            (8, -1, "index must be >= 0, got -1"),
            (1, 0, "need at least 2 channels for a non-degenerate embedding"),
            (3, 2, "degenerate embedding direction for index 2"),
            # bounded before _hadamard_row builds one sign per channel, which for a power of
            # two as large as 2**40 would take days and run out of memory
            (2 * simulator.MAX_CHANNELS, 0,
             f"channels must be <= {simulator.MAX_CHANNELS}, got {2 * simulator.MAX_CHANNELS}"),
        ],
        ids=["float-channels", "bool-index", "negative-index", "one-channel", "zero-direction",
             "past-max-channels"],
    )
    def test_channels_and_index_are_checked(self, channels, index, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            branch_embedding(channels, index)

    def test_scenario_rejects_embedding_violating_identity(self):
        with pytest.raises(ValueError, match="read-out identity"):
            tiny_scenario(
                branches=(
                    Branch(
                        mask=np.ones((6, 6)),
                        target=np.zeros((6, 6)),
                        embedding=np.full(8, 2.0),
                    ),
                )
            )


def _stored_branch(br: Branch) -> Branch:
    """The checked copy of br that a 2x2, 2-channel Scenario stores."""
    return Scenario(2, 2, channels=2, branches=[br]).branches[0]


def _first_leaf_replaced(shape, leaf):
    """A nested list of 0.5s of shape, its first element replaced by leaf."""
    nested = np.full(shape, 0.5).tolist()
    row = nested
    for _ in shape[1:]:
        row = row[0]
    row[0] = leaf
    return nested


class TestScenarioValidation:
    def test_strategy_checked(self):
        with pytest.raises(ValueError, match="strategy"):
            tiny_scenario(strategy="blend")

    def test_negative_guidance_rejected(self):
        with pytest.raises(ValueError, match="guidance_weight"):
            tiny_scenario(guidance_weight=-1.0)

    def test_mask_grid_mismatch_names_branch(self):
        message = ("scenario field 'branches[0].mask' must have shape (8, 6) "
                   "from 'height' and 'width', got (6, 6)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tiny_scenario(height=8)

    # a wrong rank and a wrong length alike: each array must have the shape the scenario needs
    @pytest.mark.parametrize("field, shape, want", [
        ("mask", (6,), "(6, 6) from 'height' and 'width'"),
        ("target", (6, 5), "(6, 6) from 'height' and 'width'"),
        ("embedding", (2, 4), "(8,) from 'channels'"),
        ("embedding", (4,), "(8,) from 'channels'"),
    ], ids=["mask_rank", "target_shape", "embedding_rank", "embedding_length"])
    def test_branch_array_of_wrong_shape_names_its_field(self, field, shape, want):
        fields = dict(mask=np.ones((6, 6)), target=np.zeros((6, 6)), embedding=np.ones(8))
        branches = [Branch(**fields), Branch(**{**fields, field: np.ones(shape)})]
        message = f"scenario field 'branches[1].{field}' must have shape {want}, got {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Scenario(6, 6, channels=8, branches=branches)

    @pytest.mark.parametrize("changes, message", [
        (dict(mask=np.full((6, 6), 1.5)), "scenario field 'branches[1].mask' must lie in [0, 1]"),
        (dict(mask=np.full((6, 6), -0.5)), "scenario field 'branches[1].mask' must lie in [0, 1]"),
        (dict(strength=0), "scenario field 'branches[1].strength' must be > 0, got 0.0"),
        (dict(strength=-1), "scenario field 'branches[1].strength' must be > 0, got -1.0"),
        (dict(embedding=np.full(8, 2.0)), "scenario field 'branches[1].embedding' violates the "
                                          "read-out identity: <u, w> = 2.0, expected 1 within 1e-6"),
    ], ids=["mask_above_one", "mask_below_zero", "strength_zero", "strength_negative", "readout"])
    def test_branch_value_rules_name_the_branch(self, changes, message):
        fields = dict(mask=np.ones((6, 6)), target=np.zeros((6, 6)), embedding=np.ones(8))
        branches = [Branch(**fields), Branch(**{**fields, **changes})]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Scenario(6, 6, channels=8, branches=branches)

    def test_branch_is_stored_as_a_new_record(self):
        br = Branch(np.ones((2, 2)), np.zeros((2, 2)), np.ones(2), strength=np.int64(2))
        scn = Scenario(2, 2, channels=2, branches=[br])
        stored, again = scn.branches[0], replace(scn, seed=3).branches[0]
        assert stored is not br and type(stored.strength) is float
        assert type(br.strength) is np.int64  # the caller's record stays as it was
        assert again.mask is not stored.mask and not again.mask.flags.writeable

    def test_scenario_that_is_not_an_object_rejected(self):
        with pytest.raises(ValueError, match="^a scenario must be a JSON object, got list$"):
            scenario_from_dict([1])

    def test_single_branch_index_checked(self):
        with pytest.raises(ValueError, match="single_branch"):
            tiny_scenario(strategy="single", single_branch=3)

    @pytest.mark.parametrize(
        "key, call",
        [
            ("height", lambda: Scenario(height=4.5, width=4)),
            ("width", lambda: Scenario(height=4, width="4")),
            ("channels", lambda: tiny_scenario(channels=np.float64(8.0))),
            ("seed", lambda: Scenario(height=4, width=4, seed=1.5)),
            ("single_branch", lambda: tiny_scenario(strategy="single", single_branch=True)),
            ("schedule.steps", lambda: NoiseSchedule.linear(steps=4.5)),
        ],
    )
    def test_integer_fields_reject_non_integers(self, key, call):
        with pytest.raises(ValueError, match=rf"^scenario field '{key}' must be an integer, got "):
            call()

    # each bad value once in each real-valued field: a string, no value, a bool,
    # an integer past the float range, NaN
    NOT_REAL = ("0.5", None, True, 10**400, math.nan)
    REAL_FIELDS = {  # (the field as its error names it, a call with the value in that field)
        "guidance_weight": (
            "scenario field 'guidance_weight'", lambda v: Scenario(2, 2, guidance_weight=v)
        ),
        "prior_mean": ("scenario field 'prior_mean'", lambda v: Scenario(2, 2, prior_mean=v)),
        "prior_std": ("scenario field 'prior_std'", lambda v: Scenario(2, 2, prior_std=v)),
        "strength": (
            "scenario field 'branches[0].strength'",
            lambda v: Scenario(2, 2, channels=2, branches=[
                Branch(np.ones((2, 2)), np.zeros((2, 2)), np.ones(2), strength=v)
            ]),
        ),
        "beta_start": (
            "scenario field 'schedule.beta_start'", lambda v: NoiseSchedule.linear(beta_start=v)
        ),
        "beta_end": (
            "scenario field 'schedule.beta_end'", lambda v: NoiseSchedule.linear(beta_end=v)
        ),
    }

    @pytest.mark.parametrize("value", NOT_REAL, ids=["str", "none", "bool", "huge_int", "nan"])
    @pytest.mark.parametrize("field", REAL_FIELDS)
    def test_real_fields_reject_non_reals(self, field, value):
        name, call = self.REAL_FIELDS[field]
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be finite and real, got "):
            call(value)

    def test_numpy_reals_accepted_as_floats(self):
        scn = tiny_scenario(guidance_weight=np.float32(1.5), prior_mean=np.int64(0))
        assert type(scn.guidance_weight) is float and type(scn.prior_mean) is float
        assert sample(scn).same_outputs(sample(tiny_scenario()))

    def test_numpy_integers_accepted_as_ints(self):
        sized = dict(height=np.int64(6), width=np.uint16(6), channels=np.int32(8))
        scn = tiny_scenario(**sized, seed=np.int8(7), single_branch=np.int64(0))
        for key in (*sized, "seed", "single_branch"):
            assert type(getattr(scn, key)) is int
        assert sample(scn).same_outputs(sample(tiny_scenario()))
        assert NoiseSchedule.linear(steps=np.int64(10)).steps == 10

    # the array rule at every site that takes a float array: (the field as its error names
    # it, the shape it takes, a call that stores the value and returns the stored array)
    ARRAY_FIELDS = {
        "FeatureMap": ("FeatureMap data", (1, 2, 2), lambda v: FeatureMap(v).data),
        "SpatialMap": ("SpatialMap data", (2, 2), lambda v: SpatialMap(v).data),
        "make_feature_map": (
            "FeatureMap data", (4,), lambda v: make_feature_map(1, 2, 2, v).data
        ),
        "mask": (
            "scenario field 'branches[0].mask'", (2, 2),
            lambda v: _stored_branch(Branch(v, np.zeros((2, 2)), np.ones(2))).mask,
        ),
        "target": (
            "scenario field 'branches[0].target'", (2, 2),
            lambda v: _stored_branch(Branch(np.ones((2, 2)), v, np.ones(2))).target,
        ),
        "embedding": (
            "scenario field 'branches[0].embedding'", (2,),
            lambda v: _stored_branch(Branch(np.ones((2, 2)), np.zeros((2, 2)), v)).embedding,
        ),
        "betas": ("scenario field 'schedule.betas'", (2,), lambda v: NoiseSchedule(v).betas),
    }

    # each bad value once at each site: (the value for a shape, the error's text after the name)
    RECTANGULAR = " must be a rectangular array of real numbers, got "
    NOT_FINITE = r" must be finite \(non-finite value at index {}\)$"
    NOT_REAL_ARRAYS = {
        "numeric_str": (lambda shape: np.full(shape, "0.5"), RECTANGULAR),
        "bool_array": (lambda shape: np.ones(shape, dtype=bool), RECTANGULAR),
        "true_in_list": (lambda shape: _first_leaf_replaced(shape, True), RECTANGULAR),
        "huge_int": (lambda shape: _first_leaf_replaced(shape, 10**400), RECTANGULAR),
        "complex": (lambda shape: np.full(shape, 0.5 + 0j), RECTANGULAR),
        "ragged": (lambda shape: [[0.5], [0.5, 0.5]], RECTANGULAR),
        "none": (lambda shape: None, RECTANGULAR),
        "nan": (lambda shape: np.full(shape, math.nan), NOT_FINITE.format(0)),
    }

    @pytest.mark.parametrize("field, value", product(ARRAY_FIELDS, NOT_REAL_ARRAYS))
    def test_array_fields_reject_non_real_arrays(self, field, value):
        name, shape, call = self.ARRAY_FIELDS[field]
        make, says = self.NOT_REAL_ARRAYS[value]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning or overflow warning either
            with pytest.raises(ValueError, match=f"^{re.escape(name)}{says}"):
                call(make(shape))

    @pytest.mark.parametrize("field", ["FeatureMap", "make_feature_map"])
    def test_float32_fields_reject_values_past_float32(self, field):
        name, shape, call = self.ARRAY_FIELDS[field]
        value = np.full(shape, 1.0)
        value.flat[1] = 1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name}{self.NOT_FINITE.format(1)}"):
                call(value)

    # integers suit every range but the betas', which lie strictly inside (0, 1)
    NUMPY_REALS = (np.int8, np.uint16, np.int64, np.float32, np.float64)
    NUMPY_REAL_CASES = [
        (field, dtype) for field, dtype in product(ARRAY_FIELDS, NUMPY_REALS)
        if field != "betas" or np.issubdtype(dtype, np.floating)
    ]

    @pytest.mark.parametrize("field, dtype", NUMPY_REAL_CASES)
    def test_array_fields_copy_numpy_reals(self, field, dtype):
        _, shape, call = self.ARRAY_FIELDS[field]
        # the betas lie strictly inside (0, 1); an embedding's mean is 1, by the read-out identity
        special = {"betas": np.full(shape, 0.25), "embedding": np.arange(np.prod(shape)) * 2}
        value = special.get(field, np.arange(np.prod(shape)) % 2)
        src = np.asarray(value, dtype=dtype).reshape(shape)
        stored = call(src)
        assert not stored.flags.writeable
        np.testing.assert_array_equal(stored.reshape(shape), src)
        before = stored.copy()
        src.flat[0] = 1  # the caller's array stays its own
        np.testing.assert_array_equal(stored, before)

    def test_json_roundtrip_preserves_run_outputs(self):
        scn = preset_scenario("contradictory")
        back = scenario_from_dict(scenario_to_dict(scn))
        assert sample(scn).same_outputs(sample(back))

    @pytest.mark.parametrize("level", [(), ("schedule",), ("fusion",), ("branches", 0)])
    def test_dict_keys_are_the_keys_the_loader_accepts(self, level):
        d = scenario_to_dict(preset_scenario("three_way"))
        probe = copy.deepcopy(d)
        node, probe_node = d, probe
        for key in level:
            node, probe_node = node[key], probe_node[key]
        probe_node["zz_unknown"] = 0
        # the loader names every key it accepts at a level when it rejects an unknown one
        with pytest.raises(ValueError, match="is not one of: ") as err:
            scenario_from_dict(probe)
        assert set(node) == set(str(err.value).split("is not one of: ")[1].split(", "))


_JSON = scenario_to_dict(preset_scenario("contradictory"))  # a scenario's dict, not a Scenario


class TestEntryPointArguments:
    """Each simulator entry point names a wrong argument kind in a ValueError."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: Scenario(2, 2, schedule=1),
                     "scenario field 'schedule' must be a NoiseSchedule, got 1", id="schedule"),
        pytest.param(lambda: Scenario(2, 2, branches=None),
                     "scenario field 'branches' must be a list or tuple, got None", id="branches_none"),
        pytest.param(lambda: Scenario(2, 2, branches="ab"),
                     "scenario field 'branches' must be a list or tuple, got 'ab'", id="branches_str"),
        pytest.param(lambda: Scenario(2, 2, branches=[_JSON["branches"][0]]),
                     "scenario field 'branches[0]' must be a Branch, got an object",
                     id="branch_dict"),
        pytest.param(lambda: run_ablation(tiny_scenario(), 0.5),
                     "deltas must be a list or tuple, got 0.5", id="deltas_float"),
        pytest.param(lambda: run_ablation(tiny_scenario(), np.array([0.5])),
                     "deltas must be a list or tuple, got an array", id="deltas_array"),
        pytest.param(lambda: sample(_JSON),
                     "scenario must be a Scenario, got an object", id="sample"),
        pytest.param(lambda: run_ablation(_JSON, [0.5]),
                     "scenario must be a Scenario, got an object", id="run_ablation"),
        pytest.param(lambda: branch_encode(_JSON, 0, np.zeros((16, 16))),
                     "scenario must be a Scenario, got an object", id="branch_encode"),
        pytest.param(lambda: condition_error(np.zeros((16, 16)), _JSON),
                     "scenario must be a Scenario, got an object", id="condition_error"),
        pytest.param(lambda: scenario_to_dict(_JSON),
                     "s must be a Scenario, got an object", id="scenario_to_dict"),
        pytest.param(lambda: analytic_score(np.zeros(2), 0, None),
                     "schedule must be a NoiseSchedule, got None", id="analytic_score"),
        pytest.param(lambda: analytic_score(np.zeros(2), 0, NoiseSchedule.linear(), prior_mean=None),
                     "prior_mean must be finite and real, got None", id="prior_mean_none"),
        pytest.param(lambda: analytic_score(np.zeros(2), 0, NoiseSchedule.linear(), prior_std="a"),
                     "prior_std must be finite and real, got 'a'", id="prior_std_str"),
        pytest.param(lambda: analytic_score(np.zeros(2), 0, NoiseSchedule.linear(), 0.0, math.inf),
                     "prior_std must be finite and real, got inf", id="prior_std_inf"),
    ])
    def test_wrong_kind_named(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_branch_tuple_and_list_alike(self):
        scn = tiny_scenario()
        assert sample(replace(scn, branches=list(scn.branches))).same_outputs(sample(scn))
        assert run_ablation(scn, (0.5,))[0].same_outputs(run_ablation(scn, [0.5])[0])


class TestSampling:
    def test_deterministic_given_seed(self):
        scn = preset_scenario("contradictory")
        assert sample(scn).same_outputs(sample(scn))

    def test_different_seeds_differ(self):
        scn = preset_scenario("contradictory")
        assert not sample(scn).same_outputs(sample(replace(scn, seed=43)))

    @pytest.mark.parametrize("strategy", ["maxfusion", "naive", "max_select", "single"])
    def test_zero_guidance_reduces_to_unconditional(self, strategy):
        scn = tiny_scenario(strategy=strategy, guidance_weight=0.0)
        uncond = replace(scn, strategy="unconditional")
        got = sample(scn)
        want = sample(uncond)
        np.testing.assert_array_equal(got.final_sample, want.final_sample)
        assert got.branch_mse == want.branch_mse

    def test_naive_equals_fold_at_delta_floor_bit_exactly(self):
        for preset in ("contradictory", "complementary"):
            scn = with_delta(preset_scenario(preset), -1.0)
            fused = sample(scn)
            averaged = sample(replace(scn, strategy="naive"))
            assert fused.same_outputs(replace_strategy(averaged, "maxfusion"))

    def test_max_select_equals_fold_at_delta_ceiling_bit_exactly(self):
        scn = with_delta(preset_scenario("contradictory"), 2.0)
        fused = sample(scn)
        selected = sample(replace(scn, strategy="max_select"))
        assert fused.same_outputs(replace_strategy(selected, "maxfusion"))

    @pytest.mark.parametrize(
        "strategy, delta",
        [("maxfusion", 0.3), ("max_select", 2.0), ("naive", -1.0),
         ("single", None), ("unconditional", None)],
    )
    def test_report_delta_is_the_gate_the_run_fused_at(self, strategy, delta):
        rep = sample(tiny_scenario(strategy=strategy, delta=0.3))
        assert rep.delta == delta
        assert not rep.same_outputs(replace(rep, delta=0.5))

    def test_single_branch_guidance_beats_unconditional(self):
        diffs = []
        for seed in range(8):
            scn = tiny_scenario(strategy="single", guidance_weight=4.0, seed=seed)
            mse_cond = sample(scn).branch_mse[0]
            mse_unc = sample(replace(scn, strategy="unconditional")).branch_mse[0]
            diffs.append(mse_unc - mse_cond)
        assert np.mean(diffs) > 0

    def test_fold_trace_satisfies_renormalization_in_situ(self):
        scn = preset_scenario("contradictory")
        _, steps = sample_with_steps(scn)
        step = steps[10]
        assert step
        fold = maxfusion_fold(list(step), scn.delta)
        f1, f2 = step
        pair = fold.pair_results[0]
        u1, u2 = fold.updated
        codes = pair.selection.codes
        for i, (orig, post) in enumerate(((f1, u1), (f2, u2))):
            lost = codes == (1 - i)
            np.testing.assert_allclose(
                channel_std_map(post).data[lost],
                channel_std_map(orig).data[lost],
                atol=1e-5,
            )

    def test_recorded_selection_stats_are_consistent(self):
        scn = preset_scenario("complementary")
        rep, steps = sample_with_steps(scn)
        for events, ts in zip(rep.step_stats, steps):
            assert len(events) == 1
            pair = maxfusion_fold(list(ts), scn.delta).pair_results[0]
            assert events[0][0] == pair.selection.averaged_fraction()
            assert events[0] == pair.selection._fractions()  # the mask's own three fractions

    def test_three_way_runs_and_reports_three_mses(self):
        rep = sample(preset_scenario("three_way"))
        assert len(rep.branch_mse) == 3
        assert all(m >= 0 for m in rep.branch_mse)
        # two pair merges a step, each event (averaged, chain wins, incoming wins)
        for events in rep.step_stats:
            assert len(events) == 2
            assert all(len(ev) == 3 and all(type(f) is float for f in ev) for ev in events)

    def test_naive_event_has_three_numbers_at_any_branch_count(self):
        scn = replace(preset_scenario("three_way"), strategy="naive")
        assert sample(scn).step_stats == (((1.0, 0.0, 0.0),),) * scn.schedule.steps

    def test_mid_run_fold_matches_scalar_oracle(self):
        scn = preset_scenario("three_way")
        _, steps = sample_with_steps(scn)
        step = steps[25]
        fold = maxfusion_fold(list(step), scn.delta)
        feats = [f.data for f in step]
        eff, updated, codes = oracles.fold(feats, scn.delta, True)
        np.testing.assert_allclose(fold.f_eff.data, eff, atol=1e-6)
        for got, want in zip(fold.updated, updated):
            np.testing.assert_allclose(got.data, want, atol=1e-6)


def with_delta(scn, delta):
    return replace(scn, delta=delta)


def replace_strategy(report, name):
    # reports only differ by the label when runs are bit-identical
    report.strategy = name
    return report


class TestDivergence:
    @pytest.mark.parametrize("strategy", ["maxfusion", "naive", "max_select", "single"])
    def test_overflowing_encoding_names_step_and_branch(self, strategy):
        scn = replace(preset_scenario("contradictory"), strategy=strategy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"diverged at step t=\d+ in branch [01]: non-finite"):
                sample(replace(scn, guidance_weight=1e4))

    def test_non_finite_final_sample_reported(self):
        scn = replace(tiny_scenario(), strategy="unconditional", prior_std=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="diverged: the final sample is non-finite"):
                sample(scn)

    def test_final_sample_past_float32_range_reported(self):
        # finite in float64, but the CLI writes it as float32
        scn = replace(tiny_scenario(), strategy="unconditional", prior_std=1e39)
        with pytest.raises(ValueError, match="final sample is non-finite in float32"):
            sample(scn)


class TestConditionError:
    def test_perfect_match_scores_zero(self):
        scn = tiny_scenario()
        s = scn.branches[0].target.copy()
        assert condition_error(s, scn) == (0.0,)

    def test_empty_mask_scores_zero(self):
        scn = tiny_scenario(
            branches=(
                Branch(
                    mask=np.zeros((6, 6)),
                    target=np.ones((6, 6)),
                    embedding=branch_embedding(8, 0),
                ),
            )
        )
        assert condition_error(np.zeros((6, 6)), scn) == (0.0,)

    def test_constant_offset_scores_squared_offset(self):
        scn = tiny_scenario()
        s = scn.branches[0].target + 1.0
        assert condition_error(s, scn)[0] == pytest.approx(1.0)

    def test_sample_off_the_grid_rejected(self):
        with pytest.raises(ValueError, match=r"^sample shape \(3, 3\) != scenario grid \(16, 16\)$"):
            condition_error(np.ones((3, 3)), preset_scenario("three_way"))

    @pytest.mark.parametrize(
        "sample_field, message",
        [
            (np.full((16, 16), math.nan), r"must be finite \(non-finite value at index 0\)$"),
            (np.full((16, 16), "a"), "must be a rectangular array of real numbers, got "),
            (np.ones((16, 16), dtype=bool), "must be a rectangular array of real numbers, got "),
            ([[0.5], [0.5, 0.5]], "must be a rectangular array of real numbers, got "),
        ],
        ids=["nan", "str", "bool", "ragged"],
    )
    def test_sample_must_be_finite_and_real(self, sample_field, message):
        with pytest.raises(ValueError, match=f"^sample {message}"):
            condition_error(sample_field, preset_scenario("three_way"))


class TestAblation:
    def test_gate_extremes(self):
        scn = preset_scenario("contradictory")
        rows = run_ablation(scn, [-1.0, 2.0])
        assert rows[0].averaged_fraction == 1.0
        assert rows[1].averaged_fraction == 0.0

    def test_averaged_fraction_non_increasing(self):
        scn = preset_scenario("contradictory")
        rows = run_ablation(scn, [-1.0, 0.0, 0.5, 0.7, 1.0])
        fracs = [r.averaged_fraction for r in rows]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    def test_bad_delta_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(simulator, "sample", lambda scn: pytest.fail("a run started"))
        with pytest.raises(ValueError, match="^delta must be finite and real, got nan$"):
            run_ablation(preset_scenario("contradictory"), [0.5, math.nan])

    def test_one_variant_scenario_alive_at_a_time(self, monkeypatch):
        # each variant copies the branch arrays, so none outlives its run
        runs = []

        def sample_alone(scn):
            assert all(ref() is None for ref in runs)
            runs.append(weakref.ref(scn))
            return sample(scn)

        monkeypatch.setattr(simulator, "sample", sample_alone)
        assert len(run_ablation(preset_scenario("three_way"), [-1.0, 0.7, 2.0])) == len(runs) == 3

    def test_empty_delta_list_rejected(self):
        with pytest.raises(ValueError, match="at least one delta"):
            run_ablation(preset_scenario("contradictory"), [])

    def test_each_report_is_the_maxfusion_run_at_its_delta(self):
        scn = replace(preset_scenario("complementary"), strategy="naive")
        deltas = [-1.0, 0.5, 0.9, 2.0]
        reports = run_ablation(scn, deltas)
        assert [rep.delta for rep in reports] == deltas
        for d, rep in zip(deltas, reports):
            assert rep.same_outputs(sample(replace(with_delta(scn, d), strategy="maxfusion")))


class TestPresets:
    def test_unknown_name_lists_valid_presets(self):
        with pytest.raises(ValueError, match="contradictory.*complementary.*three_way"):
            preset_scenario("nope")

    def test_contradictory_masks_disjoint(self):
        scn = preset_scenario("contradictory")
        overlap = scn.branches[0].mask * scn.branches[1].mask
        assert overlap.sum() == 0.0

    def test_complementary_overlap_averages_at_default_gate(self):
        scn = preset_scenario("complementary")
        _, steps = sample_with_steps(scn)
        overlap = (scn.branches[0].mask > 0) & (scn.branches[1].mask > 0)
        for ts in steps:
            codes = maxfusion_fold(list(ts), scn.delta).pair_results[0].selection.codes
            assert np.mean(codes[overlap] == AVERAGED) > 0.5

    def test_observation_two_diagnostic_inside_vs_outside(self):
        scn = preset_scenario("contradictory")
        rng = np.random.default_rng(0)
        for _ in range(20):
            x0_hat = rng.normal(size=(scn.height, scn.width))
            for b, br in enumerate(scn.branches):
                sigma = channel_std_map(branch_encode(scn, b, x0_hat)).data
                inside = br.mask > 0
                assert sigma[~inside].mean() < 1e-9
                assert sigma[inside].mean() > 0.0


class TestScenarioJsonFuzz:
    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_one_bad_value_gives_scenario_or_error_naming_its_key(self, data):
        d = data.draw(small_scenario_dicts())
        path = data.draw(st.sampled_from(list(key_paths(d))))
        value = data.draw(st.sampled_from(SUBSTITUTES))
        key = blamed_key(path)
        try:
            scn = scenario_from_dict(substituted(d, path, value))
        except ValueError as exc:
            assert key in str(exc)
        else:
            assert isinstance(scn, Scenario)
