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
strength instead of letting it vanish.  Unmerging with
renormalize=False skips the rescale and leaves losers untouched.  Every
zero-signal test, in merge and unmerge alike, reads stats.EPSILON_NORM.

Winner selection uses normalized sigma_hat while loser rescaling uses
raw sigma ratios; both read the winner from the sigma_hat argmax so
merge and unmerge always agree on a single winner per location.  Ties
on exact sigma_hat equality go to the lowest branch index, which keeps
the left fold below order-stable.

More than two branches fold pairwise: merge the first two, then merge
each following branch into the running fused feature.  Each step
unmerges its incoming branch; only the last step also unmerges the
running chain, whose earlier updates the next step would overwrite.

The merge's select and the unmerge's rescale run by channel slabs on the
statistics' thread runner; both are elementwise, so no slab bound or
thread count changes a byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import EPSILON_NORM, _each, _normalize, _pair_pass, _slabs
from .tensor_core import AVERAGED, FeatureMap, SelectionMask, SpatialMap, _check_finite, _finite_cast
from .tensor_core import _feature_maps, _flag, _instance, _real

#: The default correlation gate.  Any finite delta is legal: values in [-1, 1]
#: are meaningful, sentinels outside force one path (-1 always averages,
#: MAX_SELECT_DELTA never does).
DEFAULT_DELTA = 0.7
#: A gate threshold above rho's ceiling of 1, so the merge never averages.
MAX_SELECT_DELTA = 2.0


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


def naive_average(branches: list[FeatureMap]) -> FeatureMap:
    """Elementwise arithmetic mean across branches (the fusion baseline)."""
    _feature_maps(branches, 1, "average")
    stack = np.stack([b.data for b in branches], dtype=np.float64)
    return FeatureMap._adopt(_finite_cast(stack.sum(axis=0) / len(branches), np.float32))


def merge_pair(f1: FeatureMap, f2: FeatureMap, delta: float = DEFAULT_DELTA) -> PairFusionResult:
    """Fuse two branches: rho-gated averaging vs. sigma_hat winner selection.

    Per location: if rho >= delta the fused vector is (f1 + f2) / 2
    and the location is marked averaged; otherwise the branch with the
    larger sigma_hat contributes its entire channel vector and the
    location is marked with the winner's index (exact ties go to 0).
    rho, both sigma maps and the average come from one blocked pass.  A
    delta that is not a finite real number, or a branch that is not a
    FeatureMap, raises ValueError.
    """
    delta = _real("delta", delta)
    _feature_maps((f1, f2), 2)
    rho, sigma1, sigma2, avg = _pair_pass(f1.data, f2.data)
    s1_hat, s2_hat = _normalize(sigma1), _normalize(sigma2)

    winner = (s2_hat > s1_hat).astype(np.int32)  # exact ties go to branch 0
    codes = np.where(rho >= delta, AVERAGED, winner)
    # the average buffer becomes f_eff: won locations take the winner's vector
    wins = [(x, won) for b, x in enumerate((f1.data, f2.data)) if (won := codes == b).any()]

    def select(ch):
        for x, won in wins:
            np.putmask(avg[ch], np.broadcast_to(won, avg[ch].shape), x[ch])

    _each(select, _slabs(*avg.shape) if wins else [])  # no part, no thread
    return PairFusionResult(
        f_eff=FeatureMap._adopt(avg),
        selection=SelectionMask._adopt(codes),
        rho=SpatialMap._adopt(rho),
        sigma_hat=(SpatialMap._adopt(s1_hat), SpatialMap._adopt(s2_hat)),
        sigma=(SpatialMap._adopt(sigma1), SpatialMap._adopt(sigma2)),
    )


def pure_max_select(f1: FeatureMap, f2: FeatureMap) -> PairFusionResult:
    """Variance selection applied everywhere: the gate never averages.

    This is merge_pair with delta = MAX_SELECT_DELTA; the
    scalar-loop oracles, not a second assembly, check that selection
    independently.
    """
    return merge_pair(f1, f2, MAX_SELECT_DELTA)


def _unmerge_slot(
    x: np.ndarray, result: PairFusionResult, slot: int, renormalize: bool, where: str, branch: int
) -> FeatureMap:
    """The unmerge update of pair slot ``slot`` (0 or 1), whose input data is x.

    A rescale that overflows float32 raises ValueError, its message
    starting with ``where`` and naming this input as branch ``branch``.
    """
    codes = result.selection.codes
    own_sigma, win_sigma = result.sigma[slot].data, result.sigma[1 - slot].data
    lost = codes == (1 - slot)
    rescalable = lost & (win_sigma >= EPSILON_NORM) & renormalize
    # scale 1 keeps f_eff: the fused vector, or this branch's own where it won
    scale = np.ones(codes.shape)
    np.divide(own_sigma, win_sigma, out=scale, where=rescalable)
    eff, kept = result.f_eff.data, lost & ~rescalable
    merged, keep, finite = np.empty_like(eff), kept.any(), []

    def rescale(ch):
        out = np.multiply(scale, eff[ch], out=merged[ch], dtype=np.float64)
        if keep:
            np.copyto(out, x[ch], where=kept)
        finite.append(np.isfinite(out).all())

    _each(rescale, _slabs(*eff.shape))  # an overflow is reported by the finite check
    try:
        return FeatureMap._adopt(merged if all(finite) else _check_finite(merged))
    except ValueError as exc:
        raise ValueError(f"{where} overflowed float32 rescaling branch {branch} ({exc})") from None


def unmerge_pair(
    f1: FeatureMap,
    f2: FeatureMap,
    result: PairFusionResult,
    *,
    renormalize: bool = True,
) -> tuple[FeatureMap, FeatureMap]:
    """Propagate a merge decision back onto both branches' features.

    ``result`` must come from merge_pair on the same f1, f2: at won
    locations its f_eff is taken to hold the winner's vector, and its
    sigma maps supply the rescale ratios.

    Averaged locations: both branches adopt the fused vector.  Won
    locations: the winner keeps its original vector; the loser becomes
    (sigma_loser / sigma_winner) * winner_vector, so its post-unmerge
    channel std equals its pre-merge sigma.  A zero sigma_loser yields
    the zero vector; a winner sigma below EPSILON_NORM leaves the loser
    untouched (rescaling toward a zero-signal winner would only erase
    information).  With renormalize=False losers always keep their
    original vectors.  A rescale that overflows float32 raises ValueError
    naming the branch.
    """
    _feature_maps((f1, f2), 2)
    _instance("result", result, PairFusionResult)
    renormalize = _flag("renormalize", renormalize)
    _feature_maps((f1, result.f_eff), 2)
    spatial = f1.shape[1:]
    for name, m in [("selection", result.selection), *(("sigma", s) for s in result.sigma)]:
        if m.shape != spatial:
            raise ValueError(f"{name} shape mismatch: {m.shape} vs {spatial}")
    return tuple(
        _unmerge_slot(f.data, result, i, renormalize, "unmerge", i) for i, f in enumerate((f1, f2))
    )


def _merge_chain(branches, delta: float) -> tuple[PairFusionResult, ...]:
    """Each merge_pair result, in order, of folding branches 1.. into the running f_eff."""
    results = [merge_pair(branches[0], branches[1], delta)]
    for branch in branches[2:]:
        results.append(merge_pair(results[-1].f_eff, branch, delta))
    return tuple(results)


def maxfusion_fold(
    branches: list[FeatureMap], delta: float = DEFAULT_DELTA, *, renormalize: bool = True
) -> FoldResult:
    """Incrementally fold N branches through pairwise merge + unmerge.

    The running feature starts as branch 0; each remaining branch i is
    merged into it in order as pair i, the incoming branch is unmerged
    into slot i, and the fused f_eff carries forward.  Only the last pair
    also unmerges the running chain into slot 0, since each later step
    would overwrite that update.  With exactly two branches this is
    merge_pair followed by unmerge_pair, verbatim; renormalize is passed
    to every unmerge.  A rescale that overflows float32 raises ValueError
    naming the pair and the branch.
    """
    _feature_maps(branches, 2, "fold")
    renormalize = _flag("renormalize", renormalize)

    pair_results = _merge_chain(branches, delta)
    running = branches[0]
    updated = list(branches)
    for i, res in enumerate(pair_results, start=1):
        where = f"unmerge of pair {i}"
        if i == len(pair_results):  # slot 0 before slot 1, in unmerge_pair's order
            updated[0] = _unmerge_slot(running.data, res, 0, renormalize, where, 0)
        updated[i] = _unmerge_slot(branches[i].data, res, 1, renormalize, where, i)
        running = res.f_eff
    return FoldResult(f_eff=running, updated=tuple(updated), pair_results=pair_results)
