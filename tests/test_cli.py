import json
import struct

import numpy as np

from maxfusion import (
    FeatureMap,
    make_feature_map,
    naive_average,
    preset_scenario,
    read_tensor,
    scenario_to_dict,
)
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
            names = sorted(
                p.name for p in out_a.iterdir() if p.suffix in (".mxft", ".csv")
            )
            assert names
            for name in names:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
            for p in out_a.iterdir():
                p.unlink()
            for p in out_b.iterdir():
                p.unlink()
