"""Valid scenario JSON dicts and single-value substitutions, for the loader fuzz tests."""

import copy
import math

import numpy as np
from hypothesis import strategies as st

from maxfusion import Branch, NoiseSchedule, Scenario, branch_embedding, scenario_to_dict

DELETE = object()  # substitute that removes the key instead of replacing its value
SUBSTITUTES = (
    None, True, False, 0, -1, 1.5, math.nan, math.inf, -math.inf, 2**70, "x",
    [], [[0.5, 0.5]], [[0.5], [0.5, 0.5]], {}, DELETE,
)


def key_paths(node, path=()):
    """Every key path into a JSON-shaped value, list indices included."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from key_paths(child, path + (key,))


def substituted(d, path, value):
    d = copy.deepcopy(d)
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return d


@st.composite
def small_scenario_dicts(draw):
    """A valid JSON scenario: a grid of up to 3x3, 0-2 branches, a 3-step schedule."""
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    channels = draw(st.sampled_from((4, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    branches = [
        Branch(
            mask=rng.uniform(size=(h, w)),
            target=rng.normal(size=(h, w)),
            embedding=branch_embedding(channels, i),
        )
        for i in range(draw(st.integers(0, 2)))
    ]
    scn = Scenario(
        height=h, width=w, channels=channels,
        schedule=NoiseSchedule.linear(steps=3), branches=branches,
    )
    d = scenario_to_dict(scn)
    if draw(st.booleans()):
        d["schedule"] = {"steps": 3, "beta_start": 0.01, "beta_end": 0.2}
    return d


def blamed_key(path):
    """The key an error about path must name: list items blame their array."""
    return [k for k in path if isinstance(k, str)][-1]
