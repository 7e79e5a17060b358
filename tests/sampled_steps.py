"""A sampler run together with the branch features it encoded at each step."""

import pytest

from maxfusion import sample, simulator


def sample_with_steps(scn):
    """(report, steps): sample(scn), and each step's branch features in step order.

    steps[i] is the tuple simulator._encode_branches returned at the i-th
    step (t = T-1 first), so maxfusion_fold(list(steps[i]), scn.delta)
    refolds that step as the run fused it.  A run that fuses nothing
    (unconditional, or no branch) encodes nothing and gives no steps.
    """
    steps = []
    encode = simulator._encode_branches

    def recording(*args):
        steps.append(feats := encode(*args))
        return feats

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_encode_branches", recording)
        report = sample(scn)
    return report, tuple(steps)
