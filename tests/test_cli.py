import contextlib
import functools
import io
import json
import math
import re
import string
import struct
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxfusion import (
    Branch,
    FeatureMap,
    NoiseSchedule,
    Scenario,
    branch_embedding,
    make_feature_map,
    maxfusion_fold,
    naive_average,
    preset_scenario,
    read_tensor,
    scenario_to_dict,
    write_tensor,
)
from maxfusion import cli, simulator, stats
from maxfusion.cli import main
from maxfusion.tensor_core import HEADER_SIZE
from scenario_json import (
    SUBSTITUTES, blamed_key, key_paths, small_scenario_dicts, structural_mutations, substituted
)

GOLDEN_CONTRADICTORY_METRICS = (
    "strategy,delta,branch,mse,averaged_fraction,seed\n"
    "maxfusion,0.7,0,1.4736467,0,42\n"
    "maxfusion,0.7,1,1.38165381,0,42\n"
)


def write_tensor_file(path, fm: FeatureMap) -> None:
    with open(path, "wb") as fh:
        write_tensor(fm, fh)


def load_tensor_file(path) -> FeatureMap:
    with open(path, "rb") as fh:
        return read_tensor(fh)


BIG = np.float32(1e38)
UP = np.nextafter(BIG, np.float32(np.inf))
FLOAT32_MAX = np.finfo(np.float32).max
#: float32 values at and near +-max, and the 1e35 spread whose rescale onto them overflows
NEAR_MAX = [float(s * v) for s in (1, -1) for v in (FLOAT32_MAX, UP, BIG, np.float32(1e35))]


def random_tensor(seed, shape=(4, 5, 6)) -> FeatureMap:
    rng = np.random.default_rng(seed)
    return FeatureMap(rng.normal(size=shape).astype(np.float32))


def read_csv(path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestStatsCommand:
    def test_constant_tensor_yields_zero_sigma_and_uniform_sigma_hat(self, tmp_path):
        src = tmp_path / "const.mxft"
        write_tensor_file(src, FeatureMap(np.full((3, 2, 2), 4.0, dtype=np.float32)))
        assert main(["stats", str(src), "--out", str(tmp_path / "o")]) == 0
        sigma = load_tensor_file(tmp_path / "o" / "sigma_0.mxft")
        np.testing.assert_array_equal(sigma.data, 0.0)
        sigma_hat = load_tensor_file(tmp_path / "o" / "sigma_hat_0.mxft")
        np.testing.assert_allclose(sigma_hat.data, 0.25)
        assert (tmp_path / "o" / "sigma_hat_0.pgm").exists()

    def test_two_identical_tensors_give_unit_rho(self, tmp_path):
        src = tmp_path / "t.mxft"
        write_tensor_file(src, random_tensor(3))
        assert main(["stats", str(src), str(src), "--out", str(tmp_path / "o")]) == 0
        rho = load_tensor_file(tmp_path / "o" / "rho.mxft")
        np.testing.assert_array_equal(rho.data, 1.0)

    def test_missing_file_exits_2_naming_path(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "absent.mxft"), "--out", str(tmp_path)])
        assert code == 2
        assert "absent.mxft" in capsys.readouterr().err

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.mxft", tmp_path / "b.mxft"
        write_tensor_file(a, random_tensor(0, (2, 3, 3)))
        write_tensor_file(b, random_tensor(1, (2, 3, 4)))
        assert main(["stats", str(a), str(b), "--out", str(tmp_path / "o")]) == 2
        assert "shape mismatch" in capsys.readouterr().err

    def test_three_inputs_rejected(self, tmp_path):
        src = tmp_path / "t.mxft"
        write_tensor_file(src, random_tensor(2))
        assert main(["stats", str(src), str(src), str(src), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("n_inputs", [1, 2])
    def test_one_std_pass_per_input(self, n_inputs, tmp_path, monkeypatch):
        passes = []
        std_map = stats._std_map
        monkeypatch.setattr(stats, "_std_map", lambda x: passes.append(x) or std_map(x))
        paths = []
        for i in range(n_inputs):
            paths.append(str(tmp_path / f"t{i}.mxft"))
            write_tensor_file(paths[-1], random_tensor(i))
        assert main(["stats", *paths, "--out", str(tmp_path / "o")]) == 0
        assert len(passes) == n_inputs
        # sigma_hat is sigma's normalization, as normalized_std_map computes it
        for i, fm in enumerate(map(load_tensor_file, paths)):
            want = io.BytesIO()
            write_tensor(stats.normalized_std_map(fm), want)
            assert (tmp_path / "o" / f"sigma_hat_{i}.mxft").read_bytes() == want.getvalue()


class TestFuseCommand:
    def test_self_fusion_is_identity(self, tmp_path, capsys):
        src = tmp_path / "t.mxft"
        fm = random_tensor(4)
        write_tensor_file(src, fm)
        assert main(["fuse", str(src), str(src), "--out", str(tmp_path / "o")]) == 0
        assert load_tensor_file(tmp_path / "o" / "f_eff.mxft") == fm
        summary = json.loads(capsys.readouterr().out)
        assert summary["inputs"] == 2
        assert 0.0 <= summary["averaged_fraction"] <= 1.0

    def test_delta_floor_averages(self, tmp_path):
        a, b = tmp_path / "a.mxft", tmp_path / "b.mxft"
        f1, f2 = random_tensor(5), random_tensor(6)
        write_tensor_file(a, f1)
        write_tensor_file(b, f2)
        assert main(["fuse", str(a), str(b), "--delta", "-1", "--out", str(tmp_path / "o")]) == 0
        assert load_tensor_file(tmp_path / "o" / "f_eff.mxft") == naive_average([f1, f2])

    def test_three_inputs_run_the_fold(self, tmp_path):
        paths = []
        for i in range(3):
            p = tmp_path / f"t{i}.mxft"
            write_tensor_file(p, random_tensor(i, (3, 4, 4)))
            paths.append(str(p))
        assert main(["fuse", *paths, "--out", str(tmp_path / "o")]) == 0
        assert load_tensor_file(tmp_path / "o" / "f_eff.mxft").shape == (3, 4, 4)
        for i in range(3):
            assert (tmp_path / "o" / f"branch_{i}_unmerged.mxft").exists()

    def test_oversized_header_exits_2_naming_dims(self, tmp_path, capsys):
        bad = tmp_path / "huge.mxft"
        bad.write_bytes(struct.pack("<4sIIIIII", b"MXFT", 1, 0, 3, 65535, 65535, 65535))
        good = tmp_path / "t.mxft"
        write_tensor_file(good, random_tensor(7))
        assert main(["fuse", str(bad), str(good), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "(65535, 65535, 65535)" in err

    def test_trailing_bytes_exit_2_naming_dims_and_count(self, tmp_path, capsys):
        bad = tmp_path / "short_c.mxft"
        write_tensor_file(bad, random_tensor(8, (2, 3, 2)))
        raw = bytearray(bad.read_bytes())
        raw[16] = 1  # C drops from 2 to 1, leaving one channel's bytes unread
        bad.write_bytes(bytes(raw))
        good = tmp_path / "t.mxft"
        write_tensor_file(good, random_tensor(7, (2, 3, 2)))
        assert main(["fuse", str(bad), str(good), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "(1, 3, 2)" in err and "24 bytes" in err
        assert not (tmp_path / "o").exists()

    def test_no_renorm_writes_the_unrenormalized_unmerge(self, tmp_path, capsys):
        maps = [random_tensor(10 + i, (8, 5, 6)) for i in range(2)]
        paths = [tmp_path / f"t{i}.mxft" for i in range(2)]
        for p, fm in zip(paths, maps):
            write_tensor_file(p, fm)
        out = tmp_path / "o"
        assert main(["fuse", *map(str, paths), "--no-renorm", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["renormalize"] is False
        plain = maxfusion_fold(maps, renormalize=False).updated
        renormed = maxfusion_fold(maps).updated
        for i in range(2):
            got = load_tensor_file(out / f"branch_{i}_unmerged.mxft")
            assert got == plain[i]
            assert got != renormed[i]  # each branch loses somewhere and is rescaled there

    @pytest.mark.parametrize("command", ["stats", "fuse"])
    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda raw: b"XXXX" + raw[4:], "not an MXFT file"),
            (lambda raw: raw[:-4], "truncated payload"),
            (lambda raw: raw[:HEADER_SIZE] + struct.pack("<f", math.inf) + raw[HEADER_SIZE + 4 :],
             "non-finite value at index 0"),
        ],
        ids=["magic", "truncated", "non-finite"],
    )
    def test_malformed_input_error_names_its_file(self, command, damage, message, tmp_path, capsys):
        good, bad = tmp_path / "a.mxft", tmp_path / "bad.mxft"
        write_tensor_file(good, random_tensor(1))
        bad.write_bytes(damage(good.read_bytes()))
        assert main([command, str(good), str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")

    @pytest.mark.parametrize("command, n_inputs", [("stats", 2), ("fuse", 3)])
    def test_shape_mismatch_names_the_file_and_writes_nothing(
        self, command, n_inputs, tmp_path, capsys
    ):
        paths = [tmp_path / f"{name}.mxft" for name in "abc"[:n_inputs]]
        for p in paths[:-1]:
            write_tensor_file(p, random_tensor(0, (4, 3, 3)))
        write_tensor_file(paths[-1], random_tensor(1, (4, 2, 3)))
        out = tmp_path / "o"
        assert main([command, *map(str, paths), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {paths[-1]}: shape mismatch: (4, 2, 3) vs {paths[0]}'s (4, 3, 3)\n"
        )
        assert not out.exists()

    def test_overflowing_unmerge_exits_2_naming_pair_and_branch(self, tmp_path, capsys):
        # branch 0 wins near 1e38 with a tiny spread; rescaling branch 1 (spread 1e35)
        # onto its vector overflows float32, a rescale --no-renorm never makes
        quiet, loud = tmp_path / "quiet.mxft", tmp_path / "loud.mxft"
        write_tensor_file(quiet, make_feature_map(4, 1, 1, [BIG, UP, BIG, UP]))
        write_tensor_file(loud, make_feature_map(4, 1, 1, [1e35, -1e35, 1e35, -1e35]))
        argv = ["fuse", str(quiet), str(loud), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: unmerge of pair 1 overflowed float32 rescaling branch 1 "
            "(non-finite value at index 0)\n"
        )
        assert not (tmp_path / "o").exists()
        assert main([*argv, "--no-renorm"]) == 0

    def test_single_input_rejected(self, tmp_path):
        src = tmp_path / "t.mxft"
        write_tensor_file(src, random_tensor(7))
        assert main(["fuse", str(src), "--out", str(tmp_path)]) == 2


class TestSimulateCommand:
    def test_contradictory_preset_matches_golden_metrics(self, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "contradictory", "--out", str(out)]) == 0
        assert (out / "metrics.csv").read_text() == GOLDEN_CONTRADICTORY_METRICS
        for name in ("sample.mxft", "sample.pgm", "trace.json"):
            assert (out / name).exists()

    def test_complementary_preset_reports_positive_averaged_fraction(self, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "complementary", "--out", str(out)]) == 0
        rows = read_csv(out / "metrics.csv")
        assert float(rows[0]["averaged_fraction"]) > 0.0

    def test_bad_preset_lists_valid_names(self, tmp_path, capsys):
        assert main(["simulate", "--preset", "bogus", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        for name in ("contradictory", "complementary", "three_way"):
            assert name in err

    def test_invalid_json_reports_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"height": 16,\n  "width": }')
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    # files that do not decode to a scenario: (file bytes, a fragment of the error after the path)
    UNDECODABLE = {
        "deep_array": (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        "deep_mask": (
            b'{"height": 1, "width": 1, "branches": [{"mask": ' + b"[" * 990 + b"1" + b"]" * 990
            + b', "target": [[0]], "embedding": [1, 1]}]}',
            "maximum recursion depth exceeded",
        ),
        "repeated_key": (b'{"height": 4, "width": 4, "height": 5}', "repeated key 'height'"),
        "huge_integer": (b'{"height": 4, "width": 4, "seed": ' + b"9" * 5000 + b"}", "4300 digits"),
        "syntax": (b'{"height": 4, "width": }', "Expecting value: line 1 column 24"),
        "not_utf8": ('{"height": 4, "width": 4, "strategy": "caf\xe9"}'.encode("latin-1"), "utf-8"),
        "not_an_object": (b"[4, 4]", "a scenario must be a JSON object, got list"),
    }

    @pytest.mark.parametrize("case", UNDECODABLE)
    def test_undecodable_scenario_file_exits_2_naming_it(self, case, tmp_path, capsys):
        raw, fragment = self.UNDECODABLE[case]
        p = tmp_path / "scn.json"
        p.write_bytes(raw)
        assert main(["simulate", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and fragment in err, err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _padded_scenario(path, size):
        """A valid one-branch scenario file, padded with spaces to size bytes."""
        br = Branch(np.ones((2, 2)), np.ones((2, 2)), branch_embedding(4, 0))
        scn = Scenario(2, 2, 4, schedule=NoiseSchedule.linear(steps=3), branches=[br])
        text = json.dumps(scenario_to_dict(scn))
        path.write_text(text + " " * (size - len(text)), encoding="ascii")
        return path

    @pytest.mark.parametrize("case", ["dev_zero", "one_byte_over"])
    def test_scenario_file_over_the_byte_bound_exits_2_naming_it(
        self, case, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "MAX_SCENARIO_BYTES", 4096)
        if case == "dev_zero":
            if not Path("/dev/zero").exists():
                pytest.skip("no /dev/zero")
            p = "/dev/zero"
        else:
            p = self._padded_scenario(tmp_path / "scn.json", 4097)
        assert main(["simulate", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {p}: larger than 4096 bytes\n"
        assert not (tmp_path / "o").exists()

    def test_scenario_file_at_the_byte_bound_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SCENARIO_BYTES", 4096)
        p = self._padded_scenario(tmp_path / "scn.json", 4096)
        assert p.stat().st_size == 4096
        assert main(["simulate", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 0
        assert json.loads(capsys.readouterr().out)["strategy"] == "maxfusion"
        assert (tmp_path / "o" / "metrics.csv").exists()

    def test_internal_error_names_its_exception_type(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(scn):  # a MemoryError has empty text
            raise MemoryError

        monkeypatch.setattr("maxfusion.cli.sample", out_of_memory)
        assert main(["simulate", "--preset", "contradictory", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "internal error: MemoryError: \n"

    def test_scenario_file_with_invariant_violation_names_field(self, tmp_path, capsys):
        cfg = scenario_to_dict(preset_scenario("contradictory"))
        cfg["strategy"] = "blend"
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--scenario", str(p), "--out", str(tmp_path)]) == 2
        assert "strategy" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", simulator.STRATEGIES)
    def test_trace_delta_is_the_csv_delta(self, strategy, tmp_path):
        p = _preset_json_with(tmp_path, ("strategy",), strategy)
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(p), "--out", str(out)]) == 0
        cell = read_csv(out / "metrics.csv")[0]["delta"]
        trace = json.loads((out / "trace.json").read_text())
        assert trace["delta"] == (float(cell) if cell else None)

    def test_missing_scenario_and_preset_rejected(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path)]) == 2

    def test_diverging_sampler_names_step_and_branch(self, tmp_path, capsys):
        cfg = scenario_to_dict(preset_scenario("contradictory"))
        cfg["guidance_weight"] = 1e4
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning may leak out
            code = main(["simulate", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sampler diverged at step t=")
        assert "in branch 0:" in err
        assert not (tmp_path / "o" / "sample.mxft").exists()


#: a mask nested deeper than numpy's 64 dims, but not too deep to decode
DEEP_MASK = functools.reduce(lambda value, _: [value], range(100), 1)
BAD_SCENARIO_FIELDS = [
    # (field the error names, key path set in the preset's JSON, value, extra flags)
    ("guidance_weight", ("guidance_weight",), None, []),
    ("prior_std", ("prior_std",), [], []),
    ("branches[0].strength", ("branches", 0, "strength"), None, []),
    ("branches[0].mask", ("branches", 0, "mask"), {}, []),
    ("fusion.delta", ("fusion", "delta"), "abc", []),
    ("single_branch", ("single_branch",), "x", []),
    ("fusion.delta", ("fusion", "delta"), True, []),
    ("seed", ("seed",), 1.5, []),
    ("height", ("height",), 16.5, []),
    ("channels", ("channels",), 8.9, []),
    ("seed", ("seed",), -1, []),
    ("seed", (), None, ["--seed", "-1"]),
    ("schedule.steps", ("schedule",), {"steps": 0}, []),
    ("branches[0].mask", ("branches", 0, "mask", 3, 3), True, []),
    ("branches[0].mask", ("branches", 0, "mask"), DEEP_MASK, []),
]


def _preset_json_with(tmp_path, keys, value):
    """The contradictory preset as a JSON file, with value set at the key path (if any)."""
    d = scenario_to_dict(preset_scenario("contradictory"))
    if keys:
        node = d
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(d))
    return p


class TestScenarioFieldTypes:
    @pytest.mark.parametrize("field, keys, value, flags", BAD_SCENARIO_FIELDS)
    def test_bad_field_exits_2_naming_its_path(self, field, keys, value, flags, tmp_path, capsys):
        p = _preset_json_with(tmp_path, keys, value)
        argv = ["simulate", "--scenario", str(p), "--out", str(tmp_path / "o"), *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: scenario field '{field}' must be ")
        assert not (tmp_path / "o").exists()


UNKNOWN_SCENARIO_KEYS = [
    # (dotted path the error names, key path set in the preset's JSON, value)
    ("guidance_wieght", ("guidance_wieght",), 1e9),
    ("schedule.stepz", ("schedule",), {"stepz": 3}),
    ("fusion.detla", ("fusion", "detla"), 0.1),
    ("branches[0].strenght", ("branches", 0, "strenght"), 2.0),
    ("schedule.steps", ("schedule", "steps"), 7),  # the preset's schedule holds betas
    # settings that left the scenario: the loser rescale is an unmerge keyword, and the
    # zero-signal threshold is the constant stats.EPSILON_NORM
    ("fusion.renormalize", ("fusion", "renormalize"), "no"),
    ("fusion.epsilon_norm", ("fusion", "epsilon_norm"), 1e-12),
]


@pytest.mark.parametrize("field, keys, value", UNKNOWN_SCENARIO_KEYS)
def test_unknown_scenario_key_exits_2_naming_its_path(field, keys, value, tmp_path, capsys):
    p = _preset_json_with(tmp_path, keys, value)
    assert main(["simulate", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: scenario field '{field}' is not one of: ")
    assert not (tmp_path / "o").exists()


def _scenario_over_bound(field):
    """A small scenario dict with one size field just over its bound."""
    d = {"height": 4, "width": 4}
    if field == "schedule.steps":
        d["schedule"] = {"steps": simulator.MAX_STEPS + 1}
    elif field == "schedule.betas":
        d["schedule"] = {"betas": [0.01] * (simulator.MAX_STEPS + 1)}
    elif field == "channels":
        d["channels"] = simulator.MAX_CHANNELS + 1
    elif field in ("height", "width"):
        d[field] = simulator.MAX_GRID_SIDE + 1
    elif field == "branches":  # one branch's feature at the bound, so two are over it
        side, channels = _FEATURE_AT_THE_BOUND
        d.update(height=side, width=side, channels=channels)
        grid = [[0.0] * side] * side
        d["branches"] = [{"mask": grid, "target": grid, "embedding": [1.0] * channels}] * 2
    else:  # every side within bounds, their product just over
        d["height"] = d["width"] = simulator.MAX_GRID_SIDE
        d["channels"] = simulator.MAX_FEATURE_VALUES // simulator.MAX_GRID_SIDE**2 + 1
    return d


#: grid side and channel count of a branch feature of exactly MAX_FEATURE_VALUES values
_FEATURE_AT_THE_BOUND = (64, simulator.MAX_FEATURE_VALUES // 64**2)


def _two_branches_at_the_feature_bound() -> Scenario:
    side, channels = _FEATURE_AT_THE_BOUND
    br = Branch(np.zeros((side, side)), np.zeros((side, side)), np.ones(channels))
    return Scenario(height=side, width=side, channels=channels, branches=[br, br])


BOUNDED_FIELDS = (
    "schedule.steps", "schedule.betas", "channels", "height", "width", "product", "branches"
)
# the same bounds through the Python API: (what the error names, a call one past a bound)
PYTHON_OVER_BOUND = {
    "steps": ("'schedule.steps'", lambda: NoiseSchedule.linear(steps=simulator.MAX_STEPS + 1)),
    "betas": ("'schedule.betas'", lambda: NoiseSchedule([0.01] * (simulator.MAX_STEPS + 1))),
    "height": ("'height'", lambda: Scenario(height=simulator.MAX_GRID_SIDE + 1, width=1)),
    "product": (
        "'channels' * 'height' * 'width'",
        lambda: Scenario(height=1024, width=1024, channels=17),
    ),
    # as int32 the product is 2**32, which wraps to 0
    "product_int32": (
        "'channels' * 'height' * 'width'",
        lambda: Scenario(height=np.int32(1024), width=np.int32(1024), channels=np.int32(4096)),
    ),
    # sample() holds every branch's feature at once
    "branches": ("'branches'", _two_branches_at_the_feature_bound),
    "single_branch": (
        "'single_branch'",
        lambda: replace(preset_scenario("contradictory"), single_branch=-1),
    ),
    # past the float range: sample() could not scale the guidance by it
    "guidance_weight": (
        "'guidance_weight'",
        lambda: Scenario(height=1, width=1, guidance_weight=10**400),
    ),
}


def _rejection_and_peak(call):
    """The ValueError call raises, and the peak memory traced while it ran."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            call()
        return info.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScenarioSizeBounds:
    @pytest.mark.parametrize("field", BOUNDED_FIELDS)
    def test_rejected_before_allocating(self, field):
        d = _scenario_over_bound(field)
        err, peak = _rejection_and_peak(lambda: simulator.scenario_from_dict(d))
        assert peak < 1 << 20
        name = "'channels' * 'height' * 'width'" if field == "product" else f"'{field}'"
        assert name in str(err)

    @pytest.mark.parametrize("case", PYTHON_OVER_BOUND)
    def test_python_callers_rejected_before_allocating(self, case):
        name, call = PYTHON_OVER_BOUND[case]
        err, peak = _rejection_and_peak(call)
        assert peak < 1 << 20
        assert str(err).startswith("scenario field") and name in str(err)

    @pytest.mark.parametrize("field", BOUNDED_FIELDS)
    def test_cli_exits_2_naming_field(self, field, tmp_path, capsys):
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(_scenario_over_bound(field)))
        assert main(["simulate", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario field")
        assert ("channels" if field == "product" else field) in err

    def test_values_at_the_bounds_accepted(self):
        side, steps = simulator.MAX_GRID_SIDE, simulator.MAX_STEPS
        scn = simulator.scenario_from_dict(
            {"height": side, "width": 1, "channels": 2, "schedule": {"steps": steps}}
        )
        assert (scn.height, scn.schedule.steps) == (side, steps)
        scn = simulator.scenario_from_dict(
            {"height": 1, "width": side, "channels": simulator.MAX_CHANNELS}
        )
        assert (scn.width, scn.channels) == (side, simulator.MAX_CHANNELS)
        betas = np.linspace(1e-4, 0.02, steps).tolist()
        d = {"height": 1, "width": 1, "schedule": {"betas": betas}}
        assert simulator.scenario_from_dict(d).schedule.steps == steps


@pytest.mark.parametrize("command", ["simulate", "ablate", "compare"])
@pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
def test_preset_and_scenario_exclude_each_other(command, both, tmp_path, capsys):
    sources = ["--preset", "contradictory", "--scenario", str(_preset_json_with(tmp_path, (), 0))]
    argv = [command, *(sources if both else []), "--out", str(tmp_path / "o")]
    assert main([*argv, "--deltas", "0.7"] if command == "ablate" else argv) == 2
    assert "--preset" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, option",
    [(["ablate", "--deltas", "--"], "--deltas"), (["simulate", "--out=--"], "--out")],
    ids=["deltas", "out"],
)
def test_dash_dash_option_value_exits_2_naming_the_option(argv, option, capsys):
    assert main([*argv, "--preset", "contradictory"]) == 2
    assert capsys.readouterr().err.startswith(f"error: option {option} ")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["simulate", "--preset", "contradictory"], 2),
        (["ablate", "--preset", "contradictory", "--deltas", "0.7"], 2),
        (["compare", "--preset", "contradictory"], 2),
        (["fuse"], 0),
    ],
    ids=["simulate", "ablate", "compare", "fuse"],
)
def test_no_renorm_is_a_fuse_flag_only(argv, code, tmp_path, capsys):
    # sample() never unmerges, so the loser rescale is an option of fuse alone
    src = tmp_path / "t.mxft"
    write_tensor_file(src, random_tensor(2))
    if argv == ["fuse"]:
        argv = ["fuse", str(src), str(src)]
    assert main([*argv, "--no-renorm", "--out", str(tmp_path / "o")]) == code
    if code == 2:
        assert "unrecognized arguments: --no-renorm" in capsys.readouterr().err


class TestAblateCommand:
    def test_gate_extremes_in_csv(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["ablate", "--preset", "contradictory", "--deltas", "-1,2", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "metrics.csv")
        by_delta = {r["delta"]: r["averaged_fraction"] for r in rows}
        assert by_delta["-1"] == "1"
        assert by_delta["2"] == "0"

    def test_fraction_non_increasing(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            ["ablate", "--preset", "contradictory", "--deltas", "0,0.5,0.7", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        fracs = summary["averaged_fractions"]
        assert summary["monotonic"] is True
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    def test_malformed_delta_exits_2(self, tmp_path, capsys):
        code = main(
            ["ablate", "--preset", "contradictory", "--deltas", "abc", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "abc" in capsys.readouterr().err

    def test_empty_delta_list_exits_2(self, tmp_path):
        assert (
            main(["ablate", "--preset", "contradictory", "--deltas", ",", "--out", str(tmp_path)])
            == 2
        )

    def test_non_finite_delta_exits_2_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["ablate", "--preset", "contradictory", "--deltas", "0.5,inf", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: delta must be finite")
        assert not out.exists()

    def test_deltas_in_any_order(self, tmp_path, capsys):
        runs = {}
        for name, deltas in (("up", "-1,0,0.5,0.7,1,2"), ("down", "1,-1,2,0.7,0,0.5")):
            out = tmp_path / name
            argv = ["ablate", "--preset", "complementary", "--deltas", deltas, "--out", str(out)]
            assert main(argv) == 0
            summary = json.loads(capsys.readouterr().out)
            rows = read_csv(out / "metrics.csv")
            assert [float(r["delta"]) for r in rows[::2]] == summary["deltas"]  # the given order
            runs[name] = dict(zip(summary["deltas"], summary["averaged_fractions"])), rows
        assert runs["up"][0] == runs["down"][0]
        assert sorted(map(str, runs["up"][1])) == sorted(map(str, runs["down"][1]))

    def test_runs_without_a_merge_pass_the_order_check(self, tmp_path, capsys):
        d = scenario_to_dict(preset_scenario("contradictory"))
        d["branches"] = d["branches"][:1]
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(d))
        argv = ["ablate", "--scenario", str(p), "--deltas", "0,1", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["averaged_fractions"] == [None, None]
        assert summary["monotonic"] is True

    def test_failed_order_check_writes_no_file(self, tmp_path, monkeypatch):
        def swapped_labels(scn, deltas):  # the -1 run labelled 2 and the 2 run labelled -1
            lo, hi = simulator.run_ablation(scn, [-1.0, 2.0])
            return replace(lo, delta=2.0), replace(hi, delta=-1.0)

        monkeypatch.setattr("maxfusion.cli.run_ablation", swapped_labels)
        out = tmp_path / "o"
        assert main(["ablate", "--preset", "contradictory", "--deltas", "0", "--out", str(out)]) == 1
        assert not out.exists()


class TestCompareCommand:
    def test_default_preset_reports_all_strategies(self, tmp_path):
        out = tmp_path / "o"
        assert main(["compare", "--preset", "contradictory", "--out", str(out)]) == 0
        rows = read_csv(out / "compare.csv")
        strategies = {r["strategy"] for r in rows}
        assert strategies == {
            "naive",
            "max_select",
            "maxfusion",
            "maxfusion-no-renorm",
            "single(0)",
            "single(1)",
            "unconditional",
        }
        fused = [r for r in rows if r["strategy"] == "maxfusion"]
        assert {r["branch"] for r in fused} == {"0", "1"}
        assert all(float(r["mse"]) > 0 for r in fused)
        assert (out / "compare.md").read_text().startswith("| strategy |")

    @pytest.mark.parametrize("flags, fused", [([], "0.7"), (["--delta", "0.3"], "0.3")])
    def test_delta_column_is_the_gate_each_run_fused_at(self, flags, fused, tmp_path):
        out = tmp_path / "o"
        assert main(["compare", "--preset", "three_way", *flags, "--out", str(out)]) == 0
        assert {(r["strategy"], r["delta"]) for r in read_csv(out / "compare.csv")} == {
            ("naive", "-1"),
            ("max_select", "2"),
            ("maxfusion", fused),
            ("maxfusion-no-renorm", fused),
            ("single(0)", ""),
            ("single(1)", ""),
            ("single(2)", ""),
            ("unconditional", ""),
        }

    @pytest.mark.parametrize("n_branches", [0, 1, 2])
    def test_table_rows_have_the_header_cells(self, n_branches, tmp_path):
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(_small_scenario(n_branches)))
        out = tmp_path / "o"
        assert main(["compare", "--scenario", str(p), "--out", str(out)]) == 0
        lines = (out / "compare.md").read_text().splitlines()
        mse = "".join(f" branch {b} MSE |" for b in range(n_branches))
        assert lines[0] == f"| strategy |{mse} averaged fraction |"
        assert lines[1] == "|" + "---|" * (n_branches + 2)
        assert {line.count("|") for line in lines} == {n_branches + 3}

    def test_zero_guidance_collapses_all_strategies(self, tmp_path):
        cfg = scenario_to_dict(preset_scenario("contradictory"))
        cfg["guidance_weight"] = 0.0
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["compare", "--scenario", str(p), "--out", str(out)]) == 0
        rows = read_csv(out / "compare.csv")
        by_branch = {}
        for r in rows:
            by_branch.setdefault(r["branch"], set()).add(r["mse"])
        for mses in by_branch.values():
            assert len(mses) == 1

    def test_naive_row_equals_delta_floor_maxfusion_row(self, tmp_path):
        out_cmp = tmp_path / "cmp"
        out_sim = tmp_path / "sim"
        assert main(["compare", "--preset", "contradictory", "--out", str(out_cmp)]) == 0
        assert (
            main(
                [
                    "simulate",
                    "--preset",
                    "contradictory",
                    "--delta",
                    "-1",
                    "--out",
                    str(out_sim),
                ]
            )
            == 0
        )
        naive = {
            r["branch"]: (r["mse"], r["averaged_fraction"])
            for r in read_csv(out_cmp / "compare.csv")
            if r["strategy"] == "naive"
        }
        floor = {
            r["branch"]: (r["mse"], r["averaged_fraction"])
            for r in read_csv(out_sim / "metrics.csv")
        }
        assert naive == floor


class TestDeterminism:
    def test_repeated_invocations_produce_identical_bytes(self, tmp_path):
        src = tmp_path / "t.mxft"
        write_tensor_file(src, random_tensor(9))
        invocations = [
            ["stats", str(src)],
            ["fuse", str(src), str(src)],
            ["simulate", "--preset", "contradictory"],
            ["ablate", "--preset", "contradictory", "--deltas", "-1,0.7,2"],
            ["compare", "--preset", "complementary"],
        ]
        for argv in invocations:
            out_a, out_b = tmp_path / "a", tmp_path / "b"
            assert main([*argv, "--out", str(out_a)]) == 0
            assert main([*argv, "--out", str(out_b)]) == 0
            names = sorted(p.name for p in out_a.iterdir())
            assert names
            assert names == sorted(p.name for p in out_b.iterdir())
            for name in names:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
            for p in out_a.iterdir():
                p.unlink()
            for p in out_b.iterdir():
                p.unlink()


def _run_main(argv) -> tuple[int, str]:
    """main(argv) with its output captured: the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _small_scenario(n_branches: int) -> dict:
    """A 4x4, 3-step JSON scenario with disjoint left and right half masks."""
    branches = []
    for i in range(n_branches):
        mask = np.zeros((4, 4))
        mask[:, 2 * i : 2 * i + 2] = 1.0
        target = np.full((4, 4), 2.0 - 4.0 * i)
        branches.append(Branch(mask=mask, target=target, embedding=branch_embedding(8, i)))
    d = scenario_to_dict(Scenario(height=4, width=4, branches=branches))
    d["schedule"] = {"steps": 3}
    return d


class TestMainFuzz:
    """Through main(): every input exits 0, or 2 with an error naming what was wrong."""

    @settings(max_examples=150, deadline=None)
    @given(
        edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
        end=st.none() | st.integers(0, 10**6) | st.binary(min_size=1, max_size=8),
    )
    def test_mutated_tensor_file(self, edits, end):
        valid = random_tensor(3, shape=(2, 3, 3))
        raw = io.BytesIO()
        write_tensor(valid, raw)
        raw = bytearray(raw.getvalue())
        for at, byte in edits:
            raw[at % len(raw)] = byte
        if isinstance(end, int):  # truncate
            raw = raw[: end % len(raw)]
        elif end is not None:  # append
            raw += end
        with tempfile.TemporaryDirectory() as td:
            good, bad = Path(td, "good.mxft"), Path(td, "bad.mxft")
            write_tensor_file(good, valid)
            bad.write_bytes(raw)
            for command in ("stats", "fuse"):
                code, err = _run_main([command, str(good), str(bad), "--out", str(Path(td, "o"))])
                assert code in (0, 2), err
                if code == 2:  # a header reshaped to the same value count reads fine
                    assert err.startswith(f"error: {bad}: ") or "shape mismatch" in err, err

    @settings(max_examples=100, deadline=None)
    @given(
        n_maps=st.integers(2, 3),
        width=st.integers(1, 2),
        values=st.lists(st.sampled_from(NEAR_MAX) | st.floats(-2, 2, width=32), min_size=24,
                        max_size=24),
    )
    @example(n_maps=2, width=1, values=[BIG, UP, BIG, UP] + [1e35, -1e35] * 2 + [0.0] * 16)
    def test_tensor_values_near_float32_max(self, n_maps, width, values):
        with tempfile.TemporaryDirectory() as td:
            paths = []
            for i in range(n_maps):
                paths.append(str(Path(td, f"t{i}.mxft")))
                chunk = values[4 * width * i : 4 * width * (i + 1)]
                write_tensor_file(paths[-1], make_feature_map(4, 1, width, chunk))
            for argv in (["stats", *paths[:2]], ["fuse", *paths]):
                code, err = _run_main([*argv, "--out", str(Path(td, "o"))])
                assert code in (0, 2), err
                if code == 2:  # only a loser rescale can leave float32
                    assert re.fullmatch(r"error: unmerge of pair \d overflowed float32 rescaling "
                                        r"branch \d \(non-finite value at index \d+\)\n", err), err

    @settings(max_examples=100, deadline=None)
    @given(
        # delta-like text half the time, so many lists parse and run, in any order
        text=st.text(alphabet="0123456789.,-+e inf", max_size=20)
        | st.text(alphabet=string.printable, max_size=20),
        n_branches=st.sampled_from((1, 2)),
    )
    @example(text="1,-1", n_branches=2)
    def test_random_delta_text(self, text, n_branches):
        with tempfile.TemporaryDirectory() as td:
            p = Path(td, "scn.json")
            p.write_text(json.dumps(_small_scenario(n_branches)))
            code, err = _run_main(["ablate", "--scenario", str(p), "--deltas", text,
                                   "--out", str(Path(td, "o"))])
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and "delta" in err, err

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_scenario_json_with_one_bad_value(self, data):
        d = data.draw(small_scenario_dicts())
        path = data.draw(st.sampled_from(list(key_paths(d))))
        value = data.draw(st.sampled_from(SUBSTITUTES))
        with tempfile.TemporaryDirectory() as td:
            p = Path(td, "scn.json")
            p.write_text(json.dumps(substituted(d, path, value)))
            code, err = _run_main(["simulate", "--scenario", str(p), "--out", str(Path(td, "o"))])
        assert code in (0, 2), err
        # a legal but huge value (a strength of 2**70, say) can overflow the run, which is
        # reported as a diverged sampler instead
        if code == 2 and not err.startswith("error: sampler diverged"):
            assert err.startswith("error: ") and blamed_key(path) in err, err

    @settings(max_examples=80, deadline=None)
    @given(mutation=structural_mutations())
    def test_scenario_json_with_mutated_structure(self, mutation):
        path, text, repeated = mutation
        with tempfile.TemporaryDirectory() as td:
            p = Path(td, "scn.json")
            p.write_text(text, encoding="utf-8")
            code, err = _run_main(["simulate", "--scenario", str(p), "--out", str(Path(td, "o"))])
        assert code in (0, 2) and "Traceback" not in err, err
        if repeated is not None:
            assert (code, err) == (2, f"error: {p}: repeated key {repeated!r}\n")
        elif code == 2 and not err.startswith((f"error: {p}: ", "error: sampler diverged")):
            # what decodes is checked field by field, and each error names its field
            named = blamed_key(path) if path else "scenario field '"
            assert err.startswith("error: ") and named in err, err
