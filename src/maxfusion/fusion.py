"""Merge and unmerge operators for multi-branch feature fusion.

The pairwise merge decides, per spatial location, between two cases:

* channel vectors that agree (cosine similarity rho >= delta) are
  averaged, blending both branches' conditioning;
* otherwise the location is won wholesale by the branch with the larger
  spatially normalized channel std sigma_hat, so the locally stronger
  condition survives instead of being diluted.

The gate is inclusive (rho >= delta), so delta = 1 still averages
perfectly correlated locations, delta = -1 averages everywhere (after
clamping rho can never be below -1), and delta = 2 never averages.

Unmerge propagates the decision back to the per-branch features.  At
averaged locations both branches adopt the fused vector.  At won
locations the winner keeps its original vector; the loser is replaced
by the winner's vector rescaled to the loser's own raw channel std
(sigma_loser / sigma_winner), which preserves the loser's local signal
strength instead of letting it vanish.  The no-renormalization variant
skips the rescale and leaves losers untouched.

Winner selection uses normalized sigma_hat while loser rescaling uses
raw sigma ratios; both read the winner from the sigma_hat argmax so
merge and unmerge always agree on a single winner per location.  Ties
on exact sigma_hat equality go to the lowest branch index, which keeps
the left fold below order-stable.

More than two branches fold pairwise: merge the first two, then merge
each following branch into the running fused feature, unmerging at
every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .stats import StatsConfig, _normalize, _pair_pass
from .tensor_core import AVERAGED, FeatureMap, SelectionMask, SpatialMap

_TIE_BREAKS = ("lowest_index",)


@dataclass(frozen=True)
class FusionConfig:
    """Knobs of the pairwise merge.

    delta: correlation gate threshold.  Values in [-1, 1] are meaningful;
    sentinels outside that range force one path (-1 always averages,
    2 never does).
    renormalize: apply the loser std-rescale during unmerge.
    tie_break: winner rule on exact sigma_hat ties (only lowest index
    is supported; the field exists to make the rule explicit).
    """

    delta: float = 0.7
    renormalize: bool = True
    tie_break: str = "lowest_index"
    stats: StatsConfig = field(default_factory=StatsConfig)

    def __post_init__(self):
        if not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if self.tie_break not in _TIE_BREAKS:
            raise ValueError(f"unsupported tie_break {self.tie_break!r}; choose from {_TIE_BREAKS}")


@dataclass(frozen=True)
class PairFusionResult:
    """Everything a pairwise merge produced.

    f_eff: the fused feature map.
    selection: per-location decision (averaged or winner index).
    rho: the correlation map the gate evaluated.
    sigma_hat: each branch's normalized std map, in input order.
    sigma: each branch's raw channel std map, in input order; unmerge
    reads the loser rescale ratios from it instead of recomputing them.
    """

    f_eff: FeatureMap
    selection: SelectionMask
    rho: SpatialMap
    sigma_hat: tuple[SpatialMap, ...]
    sigma: tuple[SpatialMap, ...]


@dataclass(frozen=True)
class FoldResult:
    """Output of the incremental N-branch fold.

    f_eff is the final fused feature; updated holds each input branch's
    post-unmerge feature (slot 0 tracks the running fused chain, so its
    update from the last fold step overwrites earlier ones); pair_results
    keeps the per-step merge diagnostics in fold order.
    """

    f_eff: FeatureMap
    updated: tuple[FeatureMap, ...]
    pair_results: tuple[PairFusionResult, ...]


def _require_same_shape(maps) -> tuple[int, int, int]:
    shape = maps[0].shape
    for m in maps[1:]:
        if m.shape != shape:
            raise ValueError(f"shape mismatch: {shape} vs {m.shape}")
    return shape


def naive_average(branches: list[FeatureMap]) -> FeatureMap:
    """Elementwise arithmetic mean across branches (the fusion baseline)."""
    if not branches:
        raise ValueError("need at least 1 branch to average, got 0")
    _require_same_shape(branches)
    stack = np.stack([b.data for b in branches]).astype(np.float64)
    return FeatureMap((stack.sum(axis=0) / len(branches)).astype(np.float32))


def merge_pair(f1: FeatureMap, f2: FeatureMap, cfg: FusionConfig | None = None) -> PairFusionResult:
    """Fuse two branches: rho-gated averaging vs. sigma_hat winner selection.

    Per location: if rho >= cfg.delta the fused vector is (f1 + f2) / 2
    and the location is marked averaged; otherwise the branch with the
    larger sigma_hat contributes its entire channel vector and the
    location is marked with the winner's index (exact ties go to 0).
    rho, both sigma maps and the average come from one blocked pass.
    """
    cfg = cfg or FusionConfig()
    _require_same_shape((f1, f2))
    eps = cfg.stats.epsilon_norm
    rho, sigma1, sigma2, avg = _pair_pass(f1.data, f2.data, eps)
    s1_hat, s2_hat = _normalize(sigma1, eps), _normalize(sigma2, eps)

    averaged = rho >= cfg.delta
    winner = np.where(s2_hat > s1_hat, 1, 0)  # exact ties go to branch 0
    taken = np.where(winner[np.newaxis] == 0, f1.data, f2.data)
    eff = np.where(averaged[np.newaxis], avg, taken)

    codes = np.where(averaged, AVERAGED, winner)
    return PairFusionResult(
        f_eff=FeatureMap(eff),
        selection=SelectionMask(codes, n_branches=2),
        rho=SpatialMap(rho),
        sigma_hat=(SpatialMap(s1_hat), SpatialMap(s2_hat)),
        sigma=(SpatialMap(sigma1), SpatialMap(sigma2)),
    )


def pure_max_select(
    f1: FeatureMap, f2: FeatureMap, cfg: FusionConfig | None = None
) -> PairFusionResult:
    """Variance selection applied everywhere: the gate never averages.

    This is merge_pair with delta = 2, above the rho ceiling; the
    scalar-loop oracles, not a second assembly, check that selection
    independently.
    """
    return merge_pair(f1, f2, replace(cfg or FusionConfig(), delta=2.0))


def unmerge_pair(
    f1: FeatureMap,
    f2: FeatureMap,
    result: PairFusionResult,
    cfg: FusionConfig | None = None,
) -> tuple[FeatureMap, FeatureMap]:
    """Propagate a merge decision back onto both branches' features.

    ``result`` must come from merge_pair on the same f1, f2: at won
    locations its f_eff is taken to hold the winner's vector, and its
    sigma maps supply the rescale ratios.

    Averaged locations: both branches adopt the fused vector.  Won
    locations: the winner keeps its original vector; the loser becomes
    (sigma_loser / sigma_winner) * winner_vector when cfg.renormalize,
    so its post-unmerge channel std equals its pre-merge sigma.  A zero
    sigma_loser yields the zero vector; a winner sigma below
    epsilon_norm leaves the loser untouched (rescaling toward a
    zero-signal winner would only erase information).  Without
    renormalization losers always keep their original vectors.
    """
    cfg = cfg or FusionConfig()
    _require_same_shape((f1, f2, result.f_eff))
    spatial = f1.shape[1:]
    for name, m in [("selection", result.selection), *(("sigma", s) for s in result.sigma)]:
        if m.shape != spatial:
            raise ValueError(f"{name} shape mismatch: {m.shape} vs {spatial}")
    codes = result.selection.codes
    eff = result.f_eff.data
    eps = cfg.stats.epsilon_norm
    datas = (f1.data, f2.data)
    sigmas = tuple(s.data for s in result.sigma)
    out = []
    for i in (0, 1):
        own_sigma, win_sigma = sigmas[i], sigmas[1 - i]
        lost = codes == (1 - i)
        rescalable = lost & (win_sigma >= eps) & cfg.renormalize
        # scale 1 keeps f_eff: the fused vector, or this branch's own where it won
        scale = np.ones(spatial)
        np.divide(own_sigma, win_sigma, out=scale, where=rescalable)
        merged = np.multiply(scale, eff, out=np.empty_like(eff), dtype=np.float64)
        np.copyto(merged, datas[i], where=(lost & ~rescalable)[np.newaxis])
        out.append(FeatureMap(merged))
    return out[0], out[1]


def maxfusion_fold(branches: list[FeatureMap], cfg: FusionConfig | None = None) -> FoldResult:
    """Incrementally fold N branches through pairwise merge + unmerge.

    The running feature starts as branch 0; each remaining branch is
    merged into it in order, the pair is unmerged (slot 0 receives the
    running chain's update, slot i the incoming branch's), and the
    fused f_eff carries forward.  With exactly two branches this is
    merge_pair followed by unmerge_pair, verbatim.
    """
    cfg = cfg or FusionConfig()
    if len(branches) < 2:
        raise ValueError(f"need at least 2 branches to fold, got {len(branches)}")
    _require_same_shape(branches)

    running = branches[0]
    updated = list(branches)
    pair_results = []
    for i in range(1, len(branches)):
        res = merge_pair(running, branches[i], cfg)
        u_run, u_i = unmerge_pair(running, branches[i], res, cfg)
        updated[0] = u_run
        updated[i] = u_i
        pair_results.append(res)
        running = res.f_eff
    return FoldResult(f_eff=running, updated=tuple(updated), pair_results=tuple(pair_results))
