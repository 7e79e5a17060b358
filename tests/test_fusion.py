import inspect
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxfusion import (
    AVERAGED,
    FeatureMap,
    Scenario,
    SpatialMap,
    channel_std_map,
    correlation_map,
    decode_guidance,
    make_feature_map,
    maxfusion_fold,
    merge_pair,
    naive_average,
    normalized_std_map,
    pure_max_select,
    unmerge_pair,
    write_pgm,
    write_selection_pgm,
    write_tensor,
)
from maxfusion.fusion import DEFAULT_DELTA
from maxfusion.simulator import preset_scenario, run_ablation

DELTAS = (-1.0, 0.0, 0.5, 0.7, 1.0, 2.0)


def random_map(seed, shape=(4, 4, 4)) -> FeatureMap:
    rng = np.random.default_rng(seed)
    return FeatureMap(rng.normal(size=shape).astype(np.float32))


class TestNaiveAverage:
    def test_identity_on_duplicates(self):
        f = random_map(0)
        assert naive_average([f, f]) == f

    def test_analytic_constants(self):
        a = FeatureMap(np.full((2, 3, 3), 1.0, dtype=np.float32))
        b = FeatureMap(np.full((2, 3, 3), 3.0, dtype=np.float32))
        np.testing.assert_array_equal(naive_average([a, b]).data, np.full((2, 3, 3), 2.0))

    def test_three_branches_match_oracle(self):
        branches = [random_map(s) for s in (1, 2, 3)]
        expected = oracles.average([b.data for b in branches])
        np.testing.assert_allclose(naive_average(branches).data, expected, atol=1e-6)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            naive_average([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            naive_average([random_map(0), random_map(0, shape=(4, 4, 5))])


class TestMergePair:
    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("renorm", [True, False])
    def test_idempotent_on_identical_inputs(self, delta, renorm):
        f = random_map(5)
        res = merge_pair(f, f, delta)
        assert res.f_eff == f
        assert unmerge_pair(f, f, res, renormalize=renorm) == (f, f)

    def test_delta_floor_reproduces_naive_average(self):
        f1, f2 = random_map(6), random_map(7)
        res = merge_pair(f1, f2, -1.0)
        assert res.f_eff == naive_average([f1, f2])
        assert np.all(res.selection.codes == AVERAGED)

    def test_single_location_tie_breaks_to_branch_zero(self):
        # rho((1,0),(0,1)) = 0 < 0.7; both sigma = 0.5, single location so
        # both sigma_hat = 1.0; exact tie goes to branch 0 wholesale
        f1 = make_feature_map(2, 1, 1, [1.0, 0.0])
        f2 = make_feature_map(2, 1, 1, [0.0, 1.0])
        res = merge_pair(f1, f2, 0.7)
        assert res.rho.data[0, 0] == 0.0
        assert res.sigma_hat[0].data[0, 0] == 1.0
        assert res.sigma_hat[1].data[0, 0] == 1.0
        assert res.selection.codes[0, 0] == 0
        np.testing.assert_array_equal(res.f_eff.data.ravel(), [1.0, 0.0])

    @pytest.mark.parametrize("delta", DELTAS)
    def test_matches_scalar_loop_oracle(self, delta):
        f1, f2 = random_map(8), random_map(9)
        res = merge_pair(f1, f2, delta)
        eff, codes, rho, s1, s2 = oracles.merge(f1.data, f2.data, delta)
        np.testing.assert_array_equal(res.selection.codes, codes)
        np.testing.assert_allclose(res.f_eff.data, eff, atol=1e-6)
        np.testing.assert_allclose(res.rho.data, rho, atol=1e-6)
        np.testing.assert_allclose(res.sigma_hat[0].data, s1, atol=1e-6)
        np.testing.assert_allclose(res.sigma_hat[1].data, s2, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_swap_symmetry_up_to_ties(self, seed):
        rng = np.random.default_rng(seed)
        f1 = FeatureMap(rng.normal(size=(3, 4, 4)).astype(np.float32))
        f2 = FeatureMap(rng.normal(size=(3, 4, 4)).astype(np.float32))
        fwd = merge_pair(f1, f2, 0.5)
        rev = merge_pair(f2, f1, 0.5)
        tied = fwd.sigma_hat[0].data == fwd.sigma_hat[1].data
        averaged = fwd.selection.codes == AVERAGED
        assert np.array_equal(rev.selection.codes == AVERAGED, averaged)
        swap = ~averaged & ~tied
        np.testing.assert_array_equal(
            rev.selection.codes[swap], 1 - fwd.selection.codes[swap]
        )
        np.testing.assert_allclose(
            rev.f_eff.data[:, averaged], fwd.f_eff.data[:, averaged], atol=1e-6
        )

    def test_selection_invariant_under_per_branch_scaling(self):
        f1, f2 = random_map(10), random_map(11)
        base = merge_pair(f1, f2, 0.7).selection
        for c1, c2 in [(0.1, 10.0), (10.0, 0.1), (0.1, 0.1)]:
            scaled = merge_pair(
                FeatureMap(f1.data * np.float32(c1)),
                FeatureMap(f2.data * np.float32(c2)),
                0.7,
            ).selection
            assert scaled == base


class TestUnmergePair:
    def test_averaged_locations_take_f_eff_on_both_branches(self):
        f1, f2 = random_map(12), random_map(13)
        res = merge_pair(f1, f2, -1.0)  # everything averaged
        u1, u2 = unmerge_pair(f1, f2, res)
        assert u1 == res.f_eff
        assert u2 == res.f_eff

    def test_loser_rescaled_to_its_own_std(self):
        # winner f1 = (2,-2) has sigma 2; loser f2 = (1,0) has sigma 0.5;
        # rescale gives (0.5/2)*(2,-2) = (0.5,-0.5), std exactly 0.5.
        # delta = 0.8 forces the variance path (rho = 1/sqrt(2) ~ 0.707).
        f1 = make_feature_map(2, 1, 1, [2.0, -2.0])
        f2 = make_feature_map(2, 1, 1, [1.0, 0.0])
        res = merge_pair(f1, f2, 0.8)
        assert res.selection.codes[0, 0] == 0
        u1, u2 = unmerge_pair(f1, f2, res)
        assert u1 == f1  # winner element-exact
        np.testing.assert_array_equal(u2.data.ravel(), [0.5, -0.5])
        assert channel_std_map(u2).data[0, 0] == 0.5

    def test_no_renorm_variant_keeps_loser_unchanged(self):
        f1 = make_feature_map(2, 1, 1, [2.0, -2.0])
        f2 = make_feature_map(2, 1, 1, [1.0, 0.0])
        res = merge_pair(f1, f2, 0.8)
        u1, u2 = unmerge_pair(f1, f2, res, renormalize=False)
        assert u1 == f1
        assert u2 == f2

    def test_positional_config_fails_loudly(self):
        # renormalize is keyword-only, so an old trailing config cannot read as a truthy flag
        f1, f2 = random_map(12), random_map(13)
        res = merge_pair(f1, f2)
        with pytest.raises(TypeError):
            unmerge_pair(f1, f2, res, 0.7)
        with pytest.raises(TypeError):
            maxfusion_fold([f1, f2], 0.7, False)
        with pytest.raises(TypeError):
            pure_max_select(f1, f2, 0.7)

    def test_zero_sigma_loser_becomes_zero_vector(self):
        f1 = make_feature_map(2, 1, 1, [1.0, -1.0])
        f2 = make_feature_map(2, 1, 1, [3.0, 3.0])  # constant: sigma 0
        res = merge_pair(f1, f2, 2.0)
        assert res.selection.codes[0, 0] == 0
        _, u2 = unmerge_pair(f1, f2, res)
        np.testing.assert_array_equal(u2.data.ravel(), [0.0, 0.0])

    def test_zero_sigma_winner_leaves_loser_alone(self):
        # both constant: sigma_hat ties to branch 0 whose sigma is < epsilon
        f1 = make_feature_map(2, 1, 1, [3.0, 3.0])
        f2 = make_feature_map(2, 1, 1, [1.0, 1.0])
        res = pure_max_select(f1, f2)
        assert res.selection.codes[0, 0] == 0
        _, u2 = unmerge_pair(f1, f2, res)
        assert u2 == f2

    @pytest.mark.parametrize("renorm", [True, False])
    @pytest.mark.parametrize("delta", DELTAS)
    def test_matches_scalar_loop_oracle(self, delta, renorm):
        f1, f2 = random_map(14), random_map(15)
        res = merge_pair(f1, f2, delta)
        u1, u2 = unmerge_pair(f1, f2, res, renormalize=renorm)
        eff, codes, _, _, _ = oracles.merge(f1.data, f2.data, delta)
        e1, e2 = oracles.unmerge(f1.data, f2.data, eff, codes, renorm)
        np.testing.assert_allclose(u1.data, e1, atol=1e-6)
        np.testing.assert_allclose(u2.data, e2, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), delta=st.sampled_from(DELTAS))
    def test_renormalization_contract(self, seed, delta):
        rng = np.random.default_rng(seed)
        f1 = FeatureMap(rng.normal(size=(5, 4, 4)).astype(np.float32))
        f2 = FeatureMap(rng.normal(size=(5, 4, 4)).astype(np.float32))
        res = merge_pair(f1, f2, delta)
        u1, u2 = unmerge_pair(f1, f2, res)
        codes = res.selection.codes
        for i, (orig, post) in enumerate(((f1, u1), (f2, u2))):
            won = codes == i
            lost = codes == (1 - i)
            # winner vectors preserved element-exact
            np.testing.assert_array_equal(post.data[:, won], orig.data[:, won])
            # loser post-unmerge std equals its pre-merge sigma
            np.testing.assert_allclose(
                channel_std_map(post).data[lost],
                channel_std_map(orig).data[lost],
                atol=1e-5,
            )


class TestPureMaxSelect:
    def test_equals_merge_with_delta_above_ceiling(self):
        f1, f2 = random_map(16), random_map(17)
        forced = pure_max_select(f1, f2)
        gated = merge_pair(f1, f2, 2.0)
        assert forced.f_eff == gated.f_eff
        assert forced.selection == gated.selection
        assert forced.rho == gated.rho

    def test_idempotent_via_tie_break(self):
        f = random_map(18)
        assert pure_max_select(f, f).f_eff == f

    def test_never_averages(self):
        res = pure_max_select(random_map(19), random_map(20))
        assert not np.any(res.selection.codes == AVERAGED)


class TestFold:
    def test_idempotent_through_three_copies(self):
        f = random_map(21)
        fold = maxfusion_fold([f, f, f])
        assert fold.f_eff == f

    def test_two_branches_reduce_to_direct_pair_path(self):
        f1, f2 = random_map(22), random_map(23)
        fold = maxfusion_fold([f1, f2])
        res = merge_pair(f1, f2)
        u1, u2 = unmerge_pair(f1, f2, res)
        assert fold.f_eff == res.f_eff
        assert fold.updated == (u1, u2)
        assert fold.pair_results[0].selection == res.selection

    @pytest.mark.parametrize("renorm", [True, False])
    @pytest.mark.parametrize("delta", DELTAS)
    def test_three_branches_match_fold_oracle(self, delta, renorm):
        branches = [random_map(s, shape=(8, 4, 4)) for s in (24, 25, 26)]
        fold = maxfusion_fold(branches, delta, renormalize=renorm)
        eff, updated, codes = oracles.fold(
            [b.data for b in branches], delta, renorm
        )
        np.testing.assert_allclose(fold.f_eff.data, eff, atol=1e-6)
        for got, want in zip(fold.updated, updated):
            np.testing.assert_allclose(got.data, want, atol=1e-6)
        for pair, want_codes in zip(fold.pair_results, codes):
            np.testing.assert_array_equal(pair.selection.codes, want_codes)

    def test_fewer_than_two_branches_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            maxfusion_fold([random_map(0)])


BIG = np.float32(1e38)
UP = np.nextafter(BIG, np.float32(np.inf))


def quiet_and_loud() -> tuple[FeatureMap, FeatureMap]:
    """Two 4x1x2 maps where rescaling loud onto quiet's vector overflows float32.

    At location 0 quiet sits near 1e38 with a spread of half an ulp, and
    loud's spread is 1e35.  At location 1 quiet is constant, so merged as
    (loud, quiet) quiet wins location 0 on sigma_hat and loud location 1.
    """
    quiet = np.array([[BIG, 1], [UP, 1], [BIG, 1], [UP, 1]], dtype=np.float32)
    loud = np.tile(np.array([[1e35], [-1e35]], dtype=np.float32), (2, 2))
    return FeatureMap(quiet.reshape(4, 1, 2)), FeatureMap(loud.reshape(4, 1, 2))


class TestUnmergeOverflow:
    def test_unmerge_pair_names_the_branch(self):
        quiet, loud = quiet_and_loud()
        res = merge_pair(loud, quiet)
        np.testing.assert_array_equal(res.selection.codes, [[1, 0]])
        with pytest.raises(ValueError, match=r"^unmerge overflowed float32 rescaling branch 0 "
                                             r"\(non-finite value at index 0\)$"):
            unmerge_pair(loud, quiet, res)

    def test_fold_names_the_pair_and_the_running_chain(self):
        quiet, loud = quiet_and_loud()
        with pytest.raises(ValueError, match=r"^unmerge of pair 1 overflowed float32 rescaling "
                                             r"branch 0 \(non-finite value at index 0\)$"):
            maxfusion_fold([loud, quiet])

    def test_fold_names_the_incoming_branch_of_a_later_pair(self):
        quiet, loud = (FeatureMap(m.data[:, :, :1]) for m in quiet_and_loud())
        # pair 1 averages quiet with itself; at pair 2 the running quiet wins the tie
        with pytest.raises(ValueError, match=r"^unmerge of pair 2 overflowed float32 rescaling "
                                             r"branch 2 \(non-finite value at index 0\)$"):
            maxfusion_fold([quiet, quiet, loud])

    def test_overflow_only_in_an_overwritten_update_is_never_computed(self):
        # pair 1's update of the running chain (slot 0) would overflow, but pair 2
        # replaces it, so the fold skips it and returns what the oracle fold keeps
        quiet, loud = quiet_and_loud()
        third = random_map(27, shape=(4, 1, 2))
        fold = maxfusion_fold([loud, quiet, third])
        eff, updated, codes = oracles.fold([b.data for b in (loud, quiet, third)], 0.7, True)
        np.testing.assert_allclose(fold.f_eff.data, eff, rtol=1e-6)
        for got, want in zip(fold.updated, updated):
            np.testing.assert_allclose(got.data, want, rtol=1e-6)
        for pair, want_codes in zip(fold.pair_results, codes):
            np.testing.assert_array_equal(pair.selection.codes, want_codes)


class TestDeltaGate:
    NON_FINITE = (float("nan"), float("inf"), -float("inf"))

    @pytest.mark.parametrize("delta", NON_FINITE)
    def test_merge_and_fold_reject_a_non_finite_delta(self, delta):
        f1, f2 = random_map(30), random_map(31)
        with pytest.raises(ValueError, match="^delta must be finite"):
            merge_pair(f1, f2, delta)
        with pytest.raises(ValueError, match="^delta must be finite"):
            maxfusion_fold([f1, f2], delta)

    # each is rejected by the one number rule: a string, no value, a bool, an integer
    # past the float range, NaN
    NOT_REAL = ("0.5", None, True, 10**400, float("nan"))
    DELTA_CALLS = {
        "merge_pair": lambda d: merge_pair(random_map(30), random_map(31), d),
        "maxfusion_fold": lambda d: maxfusion_fold([random_map(30), random_map(31)], d),
        "Scenario": lambda d: Scenario(height=2, width=2, delta=d),
        "run_ablation": lambda d: run_ablation(preset_scenario("contradictory"), [0.5, d]),
    }

    @pytest.mark.parametrize("delta", NOT_REAL, ids=["str", "none", "bool", "huge_int", "nan"])
    @pytest.mark.parametrize("call", DELTA_CALLS)
    def test_a_delta_that_is_not_a_finite_real_is_rejected(self, call, delta):
        with pytest.raises(ValueError, match="^delta must be finite and real, got "):
            self.DELTA_CALLS[call](delta)

    def test_numpy_reals_accepted_as_floats(self):
        scn = Scenario(height=2, width=2, delta=np.float32(0.5))
        assert type(scn.delta) is float and scn.delta == np.float32(0.5)
        f1, f2 = random_map(30), random_map(31)
        assert merge_pair(f1, f2, np.int64(1)).selection == merge_pair(f1, f2, 1.0).selection

    @pytest.mark.parametrize("delta", NON_FINITE)
    def test_scenario_rejects_a_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="^delta must be finite"):
            Scenario(height=2, width=2, delta=delta)

    def test_defaults(self):
        for fusing in (merge_pair, maxfusion_fold):
            assert inspect.signature(fusing).parameters["delta"].default == DEFAULT_DELTA
        assert Scenario(height=2, width=2).delta == DEFAULT_DELTA
        for unmerging in (unmerge_pair, maxfusion_fold):  # the loser rescale is on by default
            assert inspect.signature(unmerging).parameters["renormalize"].default is True


def two_maps() -> tuple[FeatureMap, FeatureMap]:
    return random_map(40), random_map(41)


class TestArgumentChecks:
    """A bad argument to a fusion entry point raises a ValueError that names it."""

    # what is passed in place of a FeatureMap, and how the message shows it
    NOT_A_MAP = {
        "array": (np.zeros((4, 4, 4), np.float32), "an array"),
        "list": ([[[0.0]]], "an array"),
        "spatial_map": (SpatialMap(np.zeros((4, 4))), "SpatialMap(H=4, W=4)"),
        "none": (None, "None"),
    }
    BRANCH_CALLS = {
        "merge_pair": lambda maps: merge_pair(*maps),
        "unmerge_pair": lambda maps: unmerge_pair(*maps, merge_pair(*two_maps())),
        "maxfusion_fold": maxfusion_fold,
        "naive_average": naive_average,
    }

    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("bad", NOT_A_MAP)
    @pytest.mark.parametrize("call", BRANCH_CALLS)
    def test_a_branch_that_is_not_a_feature_map_is_named(self, call, bad, slot):
        maps = list(two_maps())
        maps[slot], shown = self.NOT_A_MAP[bad]
        message = f"^branch {slot} must be a FeatureMap, got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            self.BRANCH_CALLS[call](maps)

    @pytest.mark.parametrize("call", [maxfusion_fold, naive_average])
    def test_a_later_branch_is_named_by_its_index(self, call):
        maps = [*two_maps(), random_map(42).data]
        with pytest.raises(ValueError, match="^branch 2 must be a FeatureMap, got an array$"):
            call(maps)

    # a string, no value, integers (numpy's too) and a float: only a bool is a flag
    NOT_A_FLAG = {
        "str": "no", "none": None, "zero": 0, "one": 1, "int64": np.int64(1), "float": 1.0
    }
    FLAG_CALLS = {
        "unmerge_pair": lambda r: unmerge_pair(*two_maps(), merge_pair(*two_maps()), renormalize=r),
        "maxfusion_fold": lambda r: maxfusion_fold(list(two_maps()), renormalize=r),
    }

    @pytest.mark.parametrize("flag", NOT_A_FLAG)
    @pytest.mark.parametrize("call", FLAG_CALLS)
    def test_renormalize_must_be_a_bool(self, call, flag):
        value = self.NOT_A_FLAG[flag]
        message = f"^renormalize must be True or False, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            self.FLAG_CALLS[call](value)

    @pytest.mark.parametrize("call", FLAG_CALLS)
    def test_numpy_bools_are_flags(self, call):
        for value in (True, False):
            assert self.FLAG_CALLS[call](np.bool_(value)) == self.FLAG_CALLS[call](value)

    def test_unmerge_result_must_be_a_merge_result(self):
        f1, f2 = two_maps()
        res = merge_pair(f1, f2)
        for bad, shown in ((res.f_eff, "FeatureMap(C=4, H=4, W=4)"), (None, "None")):
            message = f"^result must be a PairFusionResult, got {re.escape(shown)}$"
            with pytest.raises(ValueError, match=message):
                unmerge_pair(f1, f2, bad)

    LIST_CALLS = {"maxfusion_fold": maxfusion_fold, "naive_average": naive_average}
    NOT_A_LIST = {
        "feature_map": (lambda: random_map(40), "FeatureMap(C=4, H=4, W=4)"),
        "generator": (lambda: (m for m in two_maps()), "<generator object "),
        "none": (lambda: None, "None"),
    }

    @pytest.mark.parametrize("bad", NOT_A_LIST)
    @pytest.mark.parametrize("call", LIST_CALLS)
    def test_branches_must_be_a_list_or_tuple(self, call, bad):
        make, shown = self.NOT_A_LIST[bad]
        message = f"^branches must be a list or tuple, got {re.escape(shown)}"
        with pytest.raises(ValueError, match=message):
            self.LIST_CALLS[call](make())

    @pytest.mark.parametrize(
        "call, branches, message",
        [
            (maxfusion_fold, [], "need at least 2 branches to fold, got 0"),
            (maxfusion_fold, [random_map(40)], "need at least 2 branches to fold, got 1"),
            (naive_average, [], "need at least 1 branch to average, got 0"),
        ],
    )
    def test_too_few_branches_give_a_count_message(self, call, branches, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(branches)

    @pytest.mark.parametrize("call", LIST_CALLS)
    def test_a_tuple_of_branches_is_accepted(self, call):
        maps = [*two_maps(), random_map(42)]
        assert self.LIST_CALLS[call](tuple(maps)) == self.LIST_CALLS[call](maps)

    def test_fold_shape_mismatch_names_both_shapes(self):
        maps = [*two_maps(), random_map(42, shape=(4, 4, 5))]
        with pytest.raises(ValueError, match=r"^shape mismatch: \(4, 4, 4\) vs \(4, 4, 5\)$"):
            maxfusion_fold(maps)


class TestContainerArguments:
    """The statistics, the writers and the decoder name an argument that is not their container."""

    STATS_CALLS = {
        "channel_std_map": (channel_std_map, "f"),
        "normalized_std_map": (normalized_std_map, "f"),
        "correlation_map": (lambda x: correlation_map(random_map(40), x), "branch 1"),
        "correlation_map_first": (lambda x: correlation_map(x, random_map(40)), "branch 0"),
    }
    NOT_A_MAP = {"array": (np.zeros((4, 4, 4), np.float32), "an array"), "none": (None, "None")}

    @pytest.mark.parametrize("bad", NOT_A_MAP)
    @pytest.mark.parametrize("call", STATS_CALLS)
    def test_stats_name_an_argument_that_is_not_a_feature_map(self, call, bad):
        fn, name = self.STATS_CALLS[call]
        value, shown = self.NOT_A_MAP[bad]
        with pytest.raises(ValueError, match=f"^{name} must be a FeatureMap, got {shown}$"):
            fn(value)

    def test_correlation_of_two_shapes_names_both(self):
        f1, f2 = random_map(40), random_map(41, shape=(4, 4, 5))
        with pytest.raises(ValueError, match=r"^shape mismatch: \(4, 4, 4\) vs \(4, 4, 5\)$"):
            correlation_map(f1, f2)

    # each writer's argument: its name and the class it must be
    TAKES = {
        write_tensor: ("tensor", "FeatureMap or SpatialMap"),
        write_pgm: ("sm", "SpatialMap"),
        write_selection_pgm: ("mask", "SelectionMask"),
    }
    # a writer, what it is given and how the message shows that
    WRITES = {
        "tensor_nan_array": (write_tensor, np.full((1, 1, 2), np.nan), "an array"),
        "tensor_2d_array": (write_tensor, np.zeros((2, 2)), "an array"),
        "pgm_array": (write_pgm, np.zeros((2, 2)), "an array"),
        "pgm_feature_map": (write_pgm, random_map(40), "FeatureMap(C=4, H=4, W=4)"),
        "selection_array": (write_selection_pgm, np.zeros((2, 2), np.int32), "an array"),
        "selection_feature_map": (write_selection_pgm, random_map(40), "FeatureMap(C=4, H=4, W=4)"),
    }

    @pytest.mark.parametrize("case", WRITES)
    def test_a_writer_names_a_bad_argument_before_writing(self, case):
        writer, value, shown = self.WRITES[case]
        name, kind = self.TAKES[writer]
        sink = io.BytesIO()
        with pytest.raises(ValueError, match=f"^{name} must be a {kind}, got {re.escape(shown)}$"):
            writer(value, sink)
        assert sink.getvalue() == b""

    @pytest.mark.parametrize("bad", NOT_A_MAP)
    def test_decode_guidance_names_an_argument_that_is_not_a_feature_map(self, bad):
        value, shown = self.NOT_A_MAP[bad]
        with pytest.raises(ValueError, match=f"^f_eff must be a FeatureMap, got {shown}$"):
            decode_guidance(value)
