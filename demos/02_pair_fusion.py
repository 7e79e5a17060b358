"""Anatomy of one merge + unmerge on a 2x2 grid, printed in full.

Four hand-built locations cover the four interesting regimes:

  (0,0) both branches agree      -> averaged
  (0,1) branches disagree, A hot -> A wins wholesale
  (1,0) branches disagree, B hot -> B wins wholesale
  (1,1) branch B silent          -> rho degenerates to 0, A wins

After the merge, unmerge puts the winner's vector back rescaled to the
loser's own channel std, so the losing branch keeps its local signal
strength for the next layer instead of vanishing.
"""

import numpy as np

from maxfusion import (
    FeatureMap,
    channel_std_map,
    merge_pair,
    unmerge_pair,
)

C = 4


def grid(vectors):
    data = np.zeros((C, 2, 2), dtype=np.float32)
    for (j, k), vec in vectors.items():
        data[:, j, k] = vec
    return FeatureMap(data)


agree = [1.0, 2.0, -1.0, 0.5]
f_a = grid({
    (0, 0): agree,
    (0, 1): [4.0, -4.0, 2.0, -2.0],   # hot
    (1, 0): [0.5, 0.2, -0.1, 0.4],    # mild
    (1, 1): [1.0, -1.0, 1.0, -1.0],
})
f_b = grid({
    (0, 0): [v * 1.1 for v in agree],  # nearly parallel to A
    (0, 1): [0.3, 0.1, -0.2, 0.0],     # mild
    (1, 0): [-3.0, 3.0, -1.5, 1.5],    # hot
    (1, 1): [0.0, 0.0, 0.0, 0.0],      # silent
})

res = merge_pair(f_a, f_b, 0.7)

print("rho per location:")
print(np.array2string(res.rho.data, precision=3))
print("selection codes (-1 averaged, 0 = A wins, 1 = B wins):")
print(res.selection.codes)
print()

u_a, u_b = unmerge_pair(f_a, f_b, res)
sig_a, sig_b = channel_std_map(f_a).data, channel_std_map(f_b).data
post_a, post_b = channel_std_map(u_a).data, channel_std_map(u_b).data

for j in range(2):
    for k in range(2):
        code = int(res.selection.codes[j, k])
        tag = "averaged" if code == -1 else f"winner {'AB'[code]}"
        print(f"({j},{k}) {tag:9s}  fused={np.round(res.f_eff.data[:, j, k], 2)}")
        print(f"        sigma before: A={sig_a[j, k]:.3f} B={sig_b[j, k]:.3f}   "
              f"after unmerge: A={post_a[j, k]:.3f} B={post_b[j, k]:.3f}")

print()
print("note the loser keeps its pre-merge sigma at winner locations:")
print(f"  (0,1): B before {sig_b[0, 1]:.3f} -> after {post_b[0, 1]:.3f} "
      f"(carried on A's direction: {np.round(u_b.data[:, 0, 1], 3)})")
