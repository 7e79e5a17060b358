import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from maxfusion import (
    FeatureMap,
    FusionConfig,
    make_feature_map,
    maxfusion_fold,
    naive_average,
    preset_scenario,
    read_tensor,
    scenario_to_dict,
)
from maxfusion import simulator
from maxfusion.cli import main

GOLDEN_CONTRADICTORY_METRICS = (
    "strategy,delta,branch,mse,averaged_fraction,seed\n"
    "maxfusion,0.7,0,1.4736467,0,42\n"
    "maxfusion,0.7,1,1.38165381,0,42\n"
)


def write_tensor_file(path, fm: FeatureMap) -> None:
    from maxfusion import write_tensor

    with open(path, "wb") as fh:
        write_tensor(fm, fh)


def load_tensor_file(path) -> FeatureMap:
    with open(path, "rb") as fh:
        return read_tensor(fh)


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
        plain = maxfusion_fold(maps, FusionConfig(renormalize=False)).updated
        renormed = maxfusion_fold(maps).updated
        for i in range(2):
            got = load_tensor_file(out / f"branch_{i}_unmerged.mxft")
            assert got == plain[i]
            assert got != renormed[i]  # each branch loses somewhere and is rescaled there

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

    def test_scenario_file_with_invariant_violation_names_field(self, tmp_path, capsys):
        cfg = scenario_to_dict(preset_scenario("contradictory"))
        cfg["strategy"] = "blend"
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--scenario", str(p), "--out", str(tmp_path)]) == 2
        assert "strategy" in capsys.readouterr().err

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


BAD_SCENARIO_FIELDS = [
    # (field the error names, key path set in the preset's JSON, value, extra flags)
    ("guidance_weight", ("guidance_weight",), None, []),
    ("prior_std", ("prior_std",), [], []),
    ("branches[0].strength", ("branches", 0, "strength"), None, []),
    ("branches[0].mask", ("branches", 0, "mask"), {}, []),
    ("fusion.delta", ("fusion", "delta"), "abc", []),
    ("single_branch", ("single_branch",), "x", []),
    ("fusion.renormalize", ("fusion", "renormalize"), "no", []),
    ("seed", ("seed",), 1.5, []),
    ("height", ("height",), 16.5, []),
    ("channels", ("channels",), 8.9, []),
    ("seed", ("seed",), -1, []),
    ("seed", (), None, ["--seed", "-1"]),
    ("schedule.steps", ("schedule",), {"steps": 0}, []),
    ("branches[0].mask", ("branches", 0, "mask", 3, 3), True, []),
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
    else:  # every side within bounds, their product just over
        d["height"] = d["width"] = simulator.MAX_GRID_SIDE
        d["channels"] = simulator.MAX_FEATURE_VALUES // simulator.MAX_GRID_SIDE**2 + 1
    return d


BOUNDED_FIELDS = ("schedule.steps", "schedule.betas", "channels", "height", "width", "product")


class TestScenarioSizeBounds:
    @pytest.mark.parametrize("field", BOUNDED_FIELDS)
    def test_rejected_before_allocating(self, field):
        d = _scenario_over_bound(field)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                simulator.scenario_from_dict(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        name = "'channels' * 'height' * 'width'" if field == "product" else f"'{field}'"
        assert name in str(info.value)

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
