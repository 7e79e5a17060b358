"""Scaling past two branches: the incremental pairwise fold.

Three branches with disjoint masks and different targets fold left to
right: the first two merge, then the third merges into the running
fused feature.  The sampler needs only those merges; refolding a
recorded step with maxfusion_fold unmerges too, so every branch leaves
with an updated feature whose local std matches what it brought in.
"""

from dataclasses import replace

from maxfusion import channel_std_map, maxfusion_fold, merge_pair, preset_scenario, sample

scn = replace(preset_scenario("three_way"), seed=11)
rep = sample(scn, record_trace=True)

print(f"three branches, targets +2 / -2 / +1, {scn.schedule.steps} steps")
print("final masked MSE per branch:", tuple(round(m, 4) for m in rep.branch_mse))
print()

# refold the branch features recorded at one mid-run step
step = rep.trace[25]
fold = maxfusion_fold(list(step), scn.delta)
print(f"fold at step 25 ran {len(fold.pair_results)} pair merges")
for i, pair in enumerate(fold.pair_results):
    wins = pair.selection.win_fractions()
    print(f"  pair {i}: averaged {pair.selection.averaged_fraction():.2f}, "
          f"running-chain wins {wins[0]:.2f}, incoming branch wins {wins[1]:.2f}")

# unmerge preserves each branch's local signal strength
for b, (before, after) in enumerate(zip(step, fold.updated)):
    mask = scn.branches[b].mask > 0
    s_before = channel_std_map(before).data[mask].mean()
    s_after = channel_std_map(after).data[mask].mean()
    print(f"branch {b}: mean sigma inside its mask {s_before:.4f} -> {s_after:.4f}")

# the merges alone, chained by hand, give the identical fused map
first = merge_pair(step[0], step[1], scn.delta)
assert merge_pair(first.f_eff, step[2], scn.delta).f_eff == fold.f_eff

print()
print("region means of the final sample (targets +2 / -2 / +1):")
for b, br in enumerate(scn.branches):
    region = rep.final_sample[br.mask > 0]
    print(f"  branch {b}: {region.mean():+.3f}")
