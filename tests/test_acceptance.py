"""Acceptance suite.

One test per exit criterion, each at its stated tolerance, each printing
a single pass line (run with ``pytest tests/test_acceptance.py -v -s``).
The scalar-loop oracles in oracles.py are the independent reference for
every numerical kernel.
"""

import math
import time
from dataclasses import replace

import numpy as np

import oracles
from maxfusion import (
    AVERAGED,
    FeatureMap,
    NoiseSchedule,
    Scenario,
    analytic_score,
    branch_encode,
    channel_std_map,
    make_feature_map,
    maxfusion_fold,
    merge_pair,
    naive_average,
    preset_scenario,
    pure_max_select,
    run_ablation,
    sample,
    unmerge_pair,
)
from maxfusion.cli import main as cli_main

DELTAS = (-1.0, 0.0, 0.5, 0.7, 1.0, 2.0)
ATOL = 1e-6


def _pass(n: int, msg: str) -> None:
    print(f"criterion {n:02d}: PASS ({msg})")


def _random_pair(rng, max_side=16):
    shape = tuple(int(rng.integers(1, max_side + 1)) for _ in range(3))
    make = lambda: FeatureMap(
        np.clip(rng.normal(size=shape), -6.0, 6.0).astype(np.float32)
    )
    return make(), make(), shape


def test_criterion_01_oracle_equivalence():
    """merge_pair, unmerge_pair (both variants) and maxfusion_fold match
    the per-location scalar-loop oracles within 1e-6 on 1000 random
    tensors up to 16x16x16 across the delta sweep, in under 60 s."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    folds = 0
    for trial in range(1000):
        delta = DELTAS[trial % len(DELTAS)]
        renorm = bool(trial % 2)
        f1, f2, shape = _random_pair(rng)

        res = merge_pair(f1, f2, delta)
        eff, codes, rho, s1, s2 = oracles.merge(f1.data, f2.data, delta)
        np.testing.assert_array_equal(res.selection.codes, codes)
        np.testing.assert_allclose(res.f_eff.data, eff, atol=ATOL)
        np.testing.assert_allclose(res.rho.data, rho, atol=ATOL)
        np.testing.assert_allclose(res.sigma_hat[0].data, s1, atol=ATOL)
        np.testing.assert_allclose(res.sigma_hat[1].data, s2, atol=ATOL)

        u1, u2 = unmerge_pair(f1, f2, res, renormalize=renorm)
        e1, e2 = oracles.unmerge(f1.data, f2.data, eff, codes, renorm)
        np.testing.assert_allclose(u1.data, e1, atol=ATOL)
        np.testing.assert_allclose(u2.data, e2, atol=ATOL)

        if trial % 10 == 0:
            f3 = FeatureMap(
                np.clip(rng.normal(size=shape), -6.0, 6.0).astype(np.float32)
            )
            fold = maxfusion_fold([f1, f2, f3], delta, renormalize=renorm)
            oeff, oupd, ocodes = oracles.fold(
                [f1.data, f2.data, f3.data], delta, renorm
            )
            np.testing.assert_allclose(fold.f_eff.data, oeff, atol=ATOL)
            for got, want in zip(fold.updated, oupd):
                np.testing.assert_allclose(got.data, want, atol=ATOL)
            for pair, want_codes in zip(fold.pair_results, ocodes):
                np.testing.assert_array_equal(pair.selection.codes, want_codes)
            folds += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _pass(1, f"1000 pair trials + {folds} fold trials in {elapsed:.1f}s")


def test_criterion_02_gate_extremes():
    """delta = -1 reproduces naive averaging bit-exactly and delta = 2
    reproduces pure max-variance selection bit-exactly."""
    rng = np.random.default_rng(1002)
    for _ in range(1000):
        f1, f2, _ = _random_pair(rng)
        floor = merge_pair(f1, f2, -1.0)
        assert floor.f_eff == naive_average([f1, f2])
        assert np.all(floor.selection.codes == AVERAGED)
        ceil = merge_pair(f1, f2, 2.0)
        forced = pure_max_select(f1, f2)
        assert ceil.f_eff == forced.f_eff
        assert ceil.selection == forced.selection
    _pass(2, "both extremes bit-exact on 1000 random pairs")


def test_criterion_03_idempotence():
    """Merging a feature map with itself returns it element-exact for
    every tested delta and both renormalize settings."""
    rng = np.random.default_rng(1003)
    checked = 0
    for _ in range(100):
        f, _, _ = _random_pair(rng)
        for delta in DELTAS:
            for renorm in (True, False):
                res = merge_pair(f, f, delta)
                assert res.f_eff == f
                u1, u2 = unmerge_pair(f, f, res, renormalize=renorm)
                assert u1 == f and u2 == f
                checked += 1
    _pass(3, f"{checked} merge+unmerge self-fusions element-exact")


def test_criterion_04_selection_scale_invariance():
    """Selection masks are identical when each branch is independently
    rescaled by c in {0.1, 1, 10}, on 100 random instances."""
    rng = np.random.default_rng(1004)
    scales = (0.1, 1.0, 10.0)
    for _ in range(100):
        f1, f2, _ = _random_pair(rng, max_side=12)
        base = merge_pair(f1, f2, 0.7).selection
        for c1 in scales:
            for c2 in scales:
                scaled = merge_pair(
                    FeatureMap(f1.data * np.float32(c1)),
                    FeatureMap(f2.data * np.float32(c2)),
                    0.7,
                ).selection
                assert scaled == base
    _pass(4, "masks identical across 9 scale combinations x 100 instances")


def test_criterion_05_renormalization_contract():
    """At every winner location the loser's post-unmerge channel std
    equals its original sigma within 1e-5 and the winner's vector is
    preserved element-exact, for both renormalize settings."""
    rng = np.random.default_rng(1005)
    locations = 0
    for trial in range(1000):
        delta = DELTAS[trial % len(DELTAS)]
        renorm = bool(trial % 2)
        f1, f2, _ = _random_pair(rng)
        res = merge_pair(f1, f2, delta)
        outs = unmerge_pair(f1, f2, res, renormalize=renorm)
        codes = res.selection.codes
        for i, (orig, post) in enumerate(zip((f1, f2), outs)):
            won = codes == i
            lost = codes == (1 - i)
            np.testing.assert_array_equal(post.data[:, won], orig.data[:, won])
            np.testing.assert_allclose(
                channel_std_map(post).data[lost],
                channel_std_map(orig).data[lost],
                atol=1e-5,
            )
            locations += int(lost.sum())
    _pass(5, f"std preserved at {locations} loser locations across 1000 trials")


def test_criterion_06_observation_two_diagnostic():
    """Branch encodings with nonzero residual have mean sigma below 1e-9
    outside their mask and above 0 inside, over 100 seeded states."""
    scn = preset_scenario("contradictory")
    rng = np.random.default_rng(1006)
    for _ in range(100):
        x0_hat = rng.normal(size=(scn.height, scn.width))
        for b, br in enumerate(scn.branches):
            residual = np.abs(br.target - x0_hat)
            assert residual[br.mask > 0].min() > 0  # nonzero residual state
            sigma = channel_std_map(branch_encode(scn, b, x0_hat)).data
            inside = br.mask > 0
            assert sigma[~inside].mean() < 1e-9
            assert sigma[inside].mean() > 0.0
    _pass(6, "sigma localizes to the condition support in 100 states x 2 branches")


def test_criterion_07_contradictory_directional_claim():
    """On the contradictory preset over 50 seeds, maxfusion's worst-branch
    masked MSE beats naive averaging's by at least 10% on average,
    within a 2 minute budget."""
    start = time.perf_counter()
    fused, averaged = [], []
    for seed in range(50):
        scn = replace(preset_scenario("contradictory"), seed=seed)
        fused.append(max(sample(scn).branch_mse))
        averaged.append(max(sample(replace(scn, strategy="naive")).branch_mse))
    mean_fused = float(np.mean(fused))
    mean_naive = float(np.mean(averaged))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"50-seed comparison took {elapsed:.1f}s"
    assert mean_fused < 0.9 * mean_naive, (
        f"maxfusion {mean_fused:.4f} vs naive {mean_naive:.4f}"
    )
    _pass(
        7,
        f"worst-branch MSE {mean_fused:.3f} vs naive {mean_naive:.3f} "
        f"({100 * (1 - mean_fused / mean_naive):.0f}% lower) in {elapsed:.1f}s",
    )


def test_criterion_08_complementary_averaging_path():
    """On the complementary preset at delta = 0.7 the averaged fraction
    inside the overlap region exceeds 0.5 at every step."""
    scn = preset_scenario("complementary")
    rep = sample(scn, record_trace=True)
    overlap = (scn.branches[0].mask > 0) & (scn.branches[1].mask > 0)
    fractions = []
    for ts in rep.trace:
        codes = maxfusion_fold(list(ts), scn.delta).pair_results[0].selection.codes
        fractions.append(float(np.mean(codes[overlap] == AVERAGED)))
    assert min(fractions) > 0.5
    _pass(8, f"overlap averaged fraction per step in [{min(fractions):.2f}, {max(fractions):.2f}]")


def test_criterion_09_ablation_monotonicity():
    """Averaged fraction is non-increasing across the threshold sweep on
    a fixed seed."""
    rows = run_ablation(
        preset_scenario("contradictory"), [-1.0, 0.0, 0.25, 0.5, 0.7, 0.75, 1.0]
    )
    fracs = [r.averaged_fraction for r in rows]
    assert all(a >= b for a, b in zip(fracs, fracs[1:])), fracs
    _pass(9, "fractions " + " >= ".join(f"{f:.2f}" for f in fracs))


def test_criterion_10_three_modality_fold():
    """The three_way preset completes, the folds of its recorded steps
    satisfy the scalar fold oracle, all three branch MSEs are reported,
    and a 2-branch fold equals the direct pair path bit-exactly."""
    scn = preset_scenario("three_way")
    rep = sample(scn, record_trace=True)
    assert len(rep.branch_mse) == 3
    assert all(m >= 0 for m in rep.branch_mse)
    for step_idx in (0, 20, 49):
        step = rep.trace[step_idx]
        fold = maxfusion_fold(list(step), scn.delta)
        feats = [f.data for f in step]
        oeff, oupd, _ = oracles.fold(feats, scn.delta, True)
        np.testing.assert_allclose(fold.f_eff.data, oeff, atol=ATOL)
        for got, want in zip(fold.updated, oupd):
            np.testing.assert_allclose(got.data, want, atol=ATOL)

    rng = np.random.default_rng(1010)
    for _ in range(50):
        f1, f2, _ = _random_pair(rng)
        fold = maxfusion_fold([f1, f2])
        res = merge_pair(f1, f2)
        u1, u2 = unmerge_pair(f1, f2, res)
        assert fold.f_eff == res.f_eff
        assert fold.updated == (u1, u2)
    _pass(10, f"3-branch MSEs {tuple(round(m, 3) for m in rep.branch_mse)}; "
              "2-branch fold == direct pair")


def test_criterion_11_sampler_sanity():
    """Unconditional runs over 10000 seeds on an 8x8 grid recover the
    prior mean within 3 standard errors and the prior variance within
    5%; the analytic score matches finite differences within 1e-4
    relative."""
    base = Scenario(height=8, width=8, strategy="unconditional")
    total = 0.0
    total_sq = 0.0
    n = 0
    for seed in range(10000):
        s = sample(replace(base, seed=seed)).final_sample
        total += float(s.sum())
        total_sq += float((s * s).sum())
        n += s.size
    mean = total / n
    var = total_sq / n - mean * mean
    se = base.prior_std / math.sqrt(n)
    assert abs(mean - base.prior_mean) < 3 * se, f"mean {mean} vs se {se}"
    prior_var = base.prior_std**2
    assert abs(var - prior_var) < 0.05 * prior_var, f"var {var}"

    sched = NoiseSchedule.linear()
    mu, sp = 0.3, 1.4
    rng = np.random.default_rng(1011)

    def log_density(x, t):
        abar = sched.alpha_bar[t]
        m = math.sqrt(abar) * mu
        v = abar * sp * sp + 1 - abar
        return -0.5 * (x - m) ** 2 / v - 0.5 * math.log(2 * math.pi * v)

    for t in (0, 10, 25, 49):
        x = rng.normal(size=(6, 6))
        h = 1e-5
        fd = (log_density(x + h, t) - log_density(x - h, t)) / (2 * h)
        np.testing.assert_allclose(analytic_score(x, t, sched, mu, sp), fd, rtol=1e-4)
    _pass(11, f"10000-seed mean {mean:+.5f} (3se {3*se:.5f}), var {var:.4f}; "
              "score == finite differences")


def test_criterion_12_cli_determinism(tmp_path):
    """Every CLI subcommand run twice with identical arguments produces
    byte-identical .mxft and .csv outputs."""
    src = tmp_path / "input.mxft"
    fm = make_feature_map(4, 6, 6, np.random.default_rng(1012).normal(size=144))
    from maxfusion import write_tensor

    with open(src, "wb") as fh:
        write_tensor(fm, fh)

    invocations = [
        ["stats", str(src)],
        ["fuse", str(src), str(src), "--delta", "0.7"],
        ["simulate", "--preset", "contradictory"],
        ["ablate", "--preset", "contradictory", "--deltas", "-1,0,0.7,2"],
        ["compare", "--preset", "three_way"],
    ]
    compared = 0
    for k, argv in enumerate(invocations):
        out_a = tmp_path / f"a{k}"
        out_b = tmp_path / f"b{k}"
        assert cli_main([*argv, "--out", str(out_a)]) == 0
        assert cli_main([*argv, "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir() if p.suffix in (".mxft", ".csv"))
        assert names, f"no checked outputs for {argv[0]}"
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
                f"{argv[0]}/{name} differs between runs"
            )
            compared += 1
    _pass(12, f"{compared} output files byte-identical across repeated runs")
