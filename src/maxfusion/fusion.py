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
each following branch into the running fused feature.  Each step
unmerges its incoming branch; only the last step also unmerges the
running chain, whose earlier updates the next step would overwrite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .stats import EPSILON_NORM, _normalize, _pair_pass
from .tensor_core import AVERAGED, FeatureMap, SelectionMask, SpatialMap, _check_finite

#: A gate threshold above rho's ceiling of 1, so the merge never averages.
MAX_SELECT_DELTA = 2.0


@dataclass(frozen=True)
class FusionConfig:
    """Knobs of the pairwise merge.

    delta: correlation gate threshold.  Values in [-1, 1] are meaningful;
    sentinels outside that range force one path (-1 always averages,
    MAX_SELECT_DELTA never does).
    renormalize: apply the loser std-rescale during unmerge.
    epsilon_norm: channel-vector norms and sigma spatial sums below this
    threshold are treated as zero signal.
    """

    delta: float = 0.7
    renormalize: bool = True
    epsilon_norm: float = EPSILON_NORM

    def __post_init__(self):
        if not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if not (np.isfinite(self.epsilon_norm) and self.epsilon_norm > 0):
            raise ValueError(f"epsilon_norm must be a finite number > 0, got {self.epsilon_norm}")


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
    post-unmerge feature (slot 0 tracks the running fused chain and holds
    its update from the last fold step, the only one unmerged);
    pair_results keeps the per-step merge diagnostics in fold order.
    """

    f_eff: FeatureMap
    updated: tuple[FeatureMap, ...]
    pair_results: tuple[PairFusionResult, ...]


def _require_same_shape(maps) -> None:
    shape = maps[0].shape
    for m in maps[1:]:
        if m.shape != shape:
            raise ValueError(f"shape mismatch: {shape} vs {m.shape}")


def naive_average(branches: list[FeatureMap]) -> FeatureMap:
    """Elementwise arithmetic mean across branches (the fusion baseline)."""
    if not branches:
        raise ValueError("need at least 1 branch to average, got 0")
    _require_same_shape(branches)
    stack = np.stack([b.data for b in branches], dtype=np.float64)
    return FeatureMap._adopt((stack.sum(axis=0) / len(branches)).astype(np.float32))


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
    eps = cfg.epsilon_norm
    rho, sigma1, sigma2, avg = _pair_pass(f1.data, f2.data, eps)
    s1_hat, s2_hat = _normalize(sigma1, eps), _normalize(sigma2, eps)

    winner = (s2_hat > s1_hat).astype(np.int32)  # exact ties go to branch 0
    codes = np.where(rho >= cfg.delta, AVERAGED, winner)
    # the average buffer becomes f_eff: won locations take the winner's vector
    for b, x in enumerate((f1.data, f2.data)):
        if (won := codes == b).any():
            np.putmask(avg, np.broadcast_to(won, avg.shape), x)
    return PairFusionResult(
        f_eff=FeatureMap._adopt(avg),
        selection=SelectionMask._adopt(codes, 2),
        rho=SpatialMap._adopt(rho),
        sigma_hat=(SpatialMap._adopt(s1_hat), SpatialMap._adopt(s2_hat)),
        sigma=(SpatialMap._adopt(sigma1), SpatialMap._adopt(sigma2)),
    )


def pure_max_select(
    f1: FeatureMap, f2: FeatureMap, cfg: FusionConfig | None = None
) -> PairFusionResult:
    """Variance selection applied everywhere: the gate never averages.

    This is merge_pair with delta = MAX_SELECT_DELTA; the
    scalar-loop oracles, not a second assembly, check that selection
    independently.
    """
    return merge_pair(f1, f2, replace(cfg or FusionConfig(), delta=MAX_SELECT_DELTA))


class _RescaleOverflow(ValueError):
    """A loser rescale left the float32 range while unmerging pair slot ``slot`` (0 or 1).

    Inside a fold, ``pair`` numbers the step from 1 and the message names
    the fold's branch (0 for the running chain, else the incoming one).
    """

    def __init__(self, slot: int, detail: str, pair: int | None = None):
        self.slot, self.detail = slot, detail
        where = "unmerge" if pair is None else f"unmerge of pair {pair}"
        branch = slot if pair is None else (0, pair)[slot]
        super().__init__(f"{where} overflowed float32 rescaling branch {branch} ({detail})")


def _unmerge_slot(
    x: np.ndarray, result: PairFusionResult, slot: int, cfg: FusionConfig
) -> FeatureMap:
    """One side of unmerge_pair: the update of pair slot ``slot``, whose input data is x."""
    codes = result.selection.codes
    own_sigma, win_sigma = result.sigma[slot].data, result.sigma[1 - slot].data
    lost = codes == (1 - slot)
    rescalable = lost & (win_sigma >= cfg.epsilon_norm) & cfg.renormalize
    # scale 1 keeps f_eff: the fused vector, or this branch's own where it won
    scale = np.ones(codes.shape)
    np.divide(own_sigma, win_sigma, out=scale, where=rescalable)
    eff = result.f_eff.data
    # an overflowing rescale is reported by the finite check, not a warning
    with np.errstate(over="ignore"):
        merged = np.multiply(scale, eff, out=np.empty_like(eff), dtype=np.float64)
    if (kept := lost & ~rescalable).any():
        np.copyto(merged, x, where=kept[np.newaxis])
    try:
        return FeatureMap._adopt(_check_finite(merged))
    except ValueError as exc:
        raise _RescaleOverflow(slot, str(exc)) from None


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
    renormalization losers always keep their original vectors.  A
    rescale that overflows float32 raises ValueError naming the branch.
    """
    cfg = cfg or FusionConfig()
    _require_same_shape((f1, f2, result.f_eff))
    spatial = f1.shape[1:]
    for name, m in [("selection", result.selection), *(("sigma", s) for s in result.sigma)]:
        if m.shape != spatial:
            raise ValueError(f"{name} shape mismatch: {m.shape} vs {spatial}")
    return _unmerge_slot(f1.data, result, 0, cfg), _unmerge_slot(f2.data, result, 1, cfg)


def _merge_chain(branches, cfg: FusionConfig) -> tuple[PairFusionResult, ...]:
    """Each merge_pair result, in order, of folding branches 1.. into the running f_eff."""
    results = [merge_pair(branches[0], branches[1], cfg)]
    for branch in branches[2:]:
        results.append(merge_pair(results[-1].f_eff, branch, cfg))
    return tuple(results)


def maxfusion_fold(branches: list[FeatureMap], cfg: FusionConfig | None = None) -> FoldResult:
    """Incrementally fold N branches through pairwise merge + unmerge.

    The running feature starts as branch 0; each remaining branch i is
    merged into it in order as pair i, the incoming branch is unmerged
    into slot i, and the fused f_eff carries forward.  Only the last pair
    also unmerges the running chain into slot 0, since each later step
    would overwrite that update.  With exactly two branches this is
    merge_pair followed by unmerge_pair, verbatim.  A rescale that
    overflows float32 raises ValueError naming the pair and the branch.
    """
    cfg = cfg or FusionConfig()
    if len(branches) < 2:
        raise ValueError(f"need at least 2 branches to fold, got {len(branches)}")

    pair_results = _merge_chain(branches, cfg)
    running = branches[0]
    updated = list(branches)
    for i, res in enumerate(pair_results, start=1):
        try:
            if i < len(pair_results):
                updated[i] = _unmerge_slot(branches[i].data, res, 1, cfg)
            else:
                updated[0], updated[i] = unmerge_pair(running, branches[i], res, cfg)
        except _RescaleOverflow as exc:
            raise _RescaleOverflow(exc.slot, exc.detail, pair=i) from None
        running = res.f_eff
    return FoldResult(f_eff=running, updated=tuple(updated), pair_results=pair_results)
