"""Valid scenario JSON dicts, and value substitutions and structural mutations for fuzz tests."""

import copy
import json
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


#: JSON text for every JSON type, numbers past the float range, integers past int64 and
#: past Python's 4300-digit conversion limit, and the non-standard constants json reads
RAW_VALUES = (
    "null", "true", "0", "-0.0", "1e308", "1e400", "-1e400", "NaN", "Infinity", '""', '"x"',
    "[]", "[[]]", "[null]", "{}", '{"a": 1}', "1" + "0" * 30, "1" + "0" * 400, "9" * 5000,
)
#: nesting depths around numpy's 64 dims and past the JSON decoder's recursion limit
DEPTHS = (1, 2, 64, 65, 900, 100_000)
_HOLE = "\0hole\0"


def value_at(d, path):
    for key in path:
        d = d[key]
    return d


def with_raw(d, path, raw: str) -> str:
    """d as JSON text with the value at path, or the whole document at (), written as raw."""
    if not path:
        return raw
    return json.dumps(substituted(d, path, _HOLE)).replace(json.dumps(_HOLE), raw)


@st.composite
def structural_mutations(draw):
    """(a key path, JSON text, the repeated key or None): a valid scenario, mutated at the path.

    The value at the path is nested in arrays, replaced by raw JSON text, or its key
    is repeated in its object, with its own value or another.
    """
    d = draw(small_scenario_dicts())
    paths = [(), *key_paths(d)]
    kind = draw(st.sampled_from(("nest", "raw", "repeat")))
    if kind == "repeat":
        path = draw(st.sampled_from([p for p in paths if p and isinstance(p[-1], str)]))
        value = draw(st.sampled_from((json.dumps(value_at(d, path)), "null", "0")))
        parent = json.dumps(value_at(d, path[:-1]))[:-1] + f", {json.dumps(path[-1])}: {value}}}"
        return path, with_raw(d, path[:-1], parent), path[-1]
    path = draw(st.sampled_from(paths))
    if kind == "raw":
        return path, with_raw(d, path, draw(st.sampled_from(RAW_VALUES))), None
    depth = draw(st.sampled_from(DEPTHS))
    return path, with_raw(d, path, "[" * depth + json.dumps(value_at(d, path)) + "]" * depth), None
