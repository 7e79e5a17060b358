"""Command-line surface: stats, fuse, simulate, ablate, compare.

Composition happens through files (MXFT tensors in, MXFT/PGM/CSV out),
so the tool chains in shell pipelines.  Every command prints one JSON
summary line to stdout.  Exit codes: 0 success, 2 usage or input error,
1 internal failure.  All numeric output uses 9 significant digits so
repeated runs produce byte-identical CSV and MXFT files.  Each CSV row
is formatted from one RunReport; its delta column is RunReport.delta.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .fusion import DEFAULT_DELTA, maxfusion_fold
from .simulator import (
    PRESET_NAMES,
    Scenario,
    preset_scenario,
    run_ablation,
    sample,
    scenario_from_dict,
)
from .stats import _normalize, channel_std_map, correlation_map
from .tensor_core import (
    FeatureMap,
    SpatialMap,
    _read_upto,
    read_tensor,
    write_pgm,
    write_selection_pgm,
    write_tensor,
)

CSV_HEADER = "strategy,delta,branch,mse,averaged_fraction,seed"
MAX_SCENARIO_BYTES = 1 << 28  # a scenario file's size, checked before it is decoded


def _fmt(x: float | None) -> str:
    """9 significant digits; None and NaN are the empty cell."""
    return "" if x is None or math.isnan(x) else format(float(x), ".9g")


def _jfloat(x: float):
    return float(text) if (text := _fmt(x)) else None


def _read(path: str, parse):
    """parse(the file at path, opened binary); a decode error, deep nesting too, names the file."""
    try:
        with open(path, "rb") as fh:
            return parse(fh)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _mxft(fh) -> FeatureMap:
    fm = read_tensor(fh)
    # a dim corrupted downward would otherwise read as a smaller map
    if fh.seekable():
        here = fh.tell()
        if (trailing := fh.seek(0, os.SEEK_END) - here) > 0:
            raise ValueError(f"{trailing} bytes after the payload of header dims {fm.shape}")
    elif fh.read(1):  # a pipe may never end, so it is read one byte past the payload, not counted
        raise ValueError(f"bytes after the payload of header dims {fm.shape}")
    return fm


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; json itself would keep a repeated key's last value."""
    if len(obj := dict(pairs)) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _scenario_json(fh) -> dict:
    if len(raw := _read_upto(fh, MAX_SCENARIO_BYTES + 1)) > MAX_SCENARIO_BYTES:
        raise ValueError(f"larger than {MAX_SCENARIO_BYTES} bytes")
    d = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    if not isinstance(d, dict):
        raise ValueError(f"a scenario must be a JSON object, got {type(d).__name__}")
    return d


def _load_features(paths: list[str]) -> list[FeatureMap]:
    """Read MXFT files of one shape; a file of another shape is named with the first's."""
    maps = [_read(p, _mxft) for p in paths]
    for path, fm in zip(paths[1:], maps[1:]):
        if fm.shape != maps[0].shape:
            raise ValueError(f"{path}: shape mismatch: {fm.shape} vs {paths[0]}'s {maps[0].shape}")
    return maps


def _write(out_dir: Path, name: str, writer, obj) -> None:
    with open(out_dir / name, "wb") as fh:
        writer(obj, fh)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_summary(obj: dict) -> None:
    print(json.dumps(obj))


def cmd_stats(args) -> int:
    if not 1 <= len(args.inputs) <= 2:
        raise ValueError(f"stats takes 1 or 2 tensor files, got {len(args.inputs)}")
    maps = _load_features(args.inputs)
    out = _out_dir(args)
    for i, fm in enumerate(maps):
        sigma = channel_std_map(fm)
        _write(out, f"sigma_{i}.mxft", write_tensor, sigma)
        sigma_hat = SpatialMap._adopt(_normalize(sigma.data))  # normalized_std_map, from this sigma
        _write(out, f"sigma_hat_{i}.mxft", write_tensor, sigma_hat)
        _write(out, f"sigma_hat_{i}.pgm", write_pgm, sigma_hat)
    summary = {"inputs": len(maps), "out_dir": str(out)}
    if len(maps) == 2:
        rho = correlation_map(maps[0], maps[1])
        _write(out, "rho.mxft", write_tensor, rho)
        _write(out, "rho.pgm", write_pgm, rho)
        summary["rho_mean"] = _jfloat(float(rho.data.mean()))
    _print_summary(summary)
    return 0


def cmd_fuse(args) -> int:
    if len(args.inputs) < 2:
        raise ValueError(f"fuse needs at least 2 tensor files, got {len(args.inputs)}")
    maps = _load_features(args.inputs)
    delta = DEFAULT_DELTA if args.delta is None else args.delta
    fold = maxfusion_fold(maps, delta, renormalize=not args.no_renorm)
    out = _out_dir(args)
    _write(out, "f_eff.mxft", write_tensor, fold.f_eff)
    final_mask = fold.pair_results[-1].selection
    _write(out, "selection.mxft", write_tensor, final_mask.tag_map())
    _write(out, "selection.pgm", write_selection_pgm, final_mask)
    for i, updated in enumerate(fold.updated):
        _write(out, f"branch_{i}_unmerged.mxft", write_tensor, updated)

    # branch 0 participates in the first pair, branch i >= 1 in pair i-1
    pair_wins = [fold.pair_results[0].selection.win_fractions()[0]]
    pair_wins += [
        fold.pair_results[i - 1].selection.win_fractions()[1] for i in range(1, len(maps))
    ]
    averaged = sum(r.selection.averaged_fraction() for r in fold.pair_results) / len(
        fold.pair_results
    )
    _print_summary(
        {
            "inputs": len(maps),
            "delta": _jfloat(delta),
            "renormalize": not args.no_renorm,
            "averaged_fraction": _jfloat(averaged),
            "win_fractions": [_jfloat(w) for w in pair_wins],
            "out_dir": str(out),
        }
    )
    return 0


def _scenario_from_args(args) -> Scenario:
    if args.scenario is None:  # argparse requires exactly one of the two
        scn = preset_scenario(args.preset)
    else:
        scn = scenario_from_dict(_read(args.scenario, _scenario_json))
    delta = scn.delta if args.delta is None else args.delta
    seed = scn.seed if args.seed is None else args.seed
    return replace(scn, delta=delta, seed=seed)


def _csv_lines(runs) -> list[str]:
    """The CSV header, then a row per branch of each (label, report); delta is the gate it used."""
    lines = [CSV_HEADER]
    for label, rep in runs:
        head, frac = f"{label},{_fmt(rep.delta)}", _fmt(rep.averaged_fraction)
        lines += [f"{head},{b},{_fmt(m)},{frac},{rep.seed}" for b, m in enumerate(rep.branch_mse)]
    return lines


def _write_lines(path: Path, lines: list[str]) -> None:
    """Every text output: ASCII lines, each ended by a bare newline on every platform."""
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii", newline="")


def cmd_simulate(args) -> int:
    scn = _scenario_from_args(args)
    rep = sample(scn)
    out = _out_dir(args)
    final = SpatialMap(rep.final_sample)
    _write(out, "sample.mxft", write_tensor, final)
    _write(out, "sample.pgm", write_pgm, final)
    _write_lines(out / "metrics.csv", _csv_lines([(scn.strategy, rep)]))
    trace = {
        "strategy": scn.strategy,
        "delta": _jfloat(rep.delta),
        "seed": scn.seed,
        "steps": scn.schedule.steps,
        "branch_mse": [_jfloat(m) for m in rep.branch_mse],
        "averaged_fraction": _jfloat(rep.averaged_fraction),
        "per_step_averaged_fraction": [_jfloat(f) for f in rep.per_step_averaged_fraction()],
    }
    _write_lines(out / "trace.json", [json.dumps(trace)])
    summary = {key: trace[key] for key in ("strategy", "seed", "branch_mse", "averaged_fraction")}
    _print_summary({**summary, "out_dir": str(out)})
    return 0


def _parse_deltas(text: str) -> list[float]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty delta list")
    deltas = []
    for p in parts:
        try:
            deltas.append(float(p))
        except ValueError:
            raise ValueError(f"malformed delta {p!r}") from None
    return deltas


def cmd_ablate(args) -> int:
    scn = _scenario_from_args(args)
    reports = run_ablation(scn, _parse_deltas(args.deltas))
    fracs = [rep.averaged_fraction for rep in reports]
    # non-increasing along ascending deltas; the NaN of a run without a merge passes
    ascending = [rep.averaged_fraction for rep in sorted(reports, key=lambda rep: rep.delta)]
    monotonic = not any(a < b for a, b in zip(ascending, ascending[1:]))
    if not monotonic:
        raise RuntimeError(f"averaged fraction is not non-increasing across deltas: {ascending}")
    out = _out_dir(args)
    _write_lines(out / "metrics.csv", _csv_lines(("maxfusion", rep) for rep in reports))
    _print_summary(
        {
            "deltas": [_jfloat(rep.delta) for rep in reports],
            "averaged_fractions": [_jfloat(f) for f in fracs],
            "monotonic": monotonic,
            "out_dir": str(out),
        }
    )
    return 0


def _md_row(cells: list[str]) -> str:
    return "| " + " | ".join(cells) + " |"


def cmd_compare(args) -> int:
    scn = _scenario_from_args(args)
    n = len(scn.branches)
    # each variant copies the branch arrays, so it is built only when its run starts
    variants = [(s, dict(strategy=s)) for s in ("naive", "max_select", "maxfusion")]
    variants += [(f"single({b})", dict(strategy="single", single_branch=b)) for b in range(n)]
    variants.append(("unconditional", dict(strategy="unconditional")))

    out = _out_dir(args)
    reports = {}
    for label, changes in variants:
        reports[label] = sample(replace(scn, **changes))
        if label == "maxfusion":
            # the maxfusion run again: sample() never unmerges, so the loser rescale
            # cannot change it; bench/reference_digests.json still hashes this row
            reports["maxfusion-no-renorm"] = reports[label]
    header = ["strategy", *(f"branch {b} MSE" for b in range(n)), "averaged fraction"]
    md = [_md_row(header), "|" + "---|" * len(header)]
    for label, rep in reports.items():
        md.append(_md_row([label, *map(_fmt, rep.branch_mse), _fmt(rep.averaged_fraction)]))
    _write_lines(out / "compare.csv", _csv_lines(reports.items()))
    _write_lines(out / "compare.md", md)
    _print_summary(
        {
            "strategies": list(reports),
            "max_branch_mse": {
                label: _jfloat(max(rep.branch_mse)) if rep.branch_mse else None
                for label, rep in reports.items()
            },
            "out_dir": str(out),
        }
    )
    return 0


def _add_delta_flag(sp) -> None:
    sp.add_argument("--delta", type=float, default=None, help=f"correlation gate threshold (default {DEFAULT_DELTA})")


def _add_scenario_flags(sp) -> None:
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help=f"named scenario: {', '.join(PRESET_NAMES)}")
    source.add_argument("--scenario", help="path to a scenario JSON file")
    _add_delta_flag(sp)
    sp.add_argument("--seed", type=int, default=None, help=f"override the run seed (default {Scenario.seed})")
    sp.add_argument("--out", default="./out", help="output directory (default ./out)")


@functools.cache  # parsing never mutates the parser, so every main() call shares one
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="maxfusion",
        description="Multi-branch feature fusion and its toy-diffusion testbed.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    st = sub.add_parser("stats", help="per-location std / normalized-std / correlation maps")
    st.add_argument("inputs", nargs="+", metavar="TENSOR", help="1 or 2 MXFT tensor files")
    st.add_argument("--out", default="./out")
    st.set_defaults(func=cmd_stats)

    fu = sub.add_parser("fuse", help="merge 2+ tensors, writing fused and unmerged outputs")
    fu.add_argument("inputs", nargs="+", metavar="TENSOR", help="2 or more MXFT tensor files")
    _add_delta_flag(fu)
    fu.add_argument("--no-renorm", action="store_true", help="disable loser std renormalization in unmerge")
    fu.add_argument("--out", default="./out")
    fu.set_defaults(func=cmd_fuse)

    si = sub.add_parser("simulate", help="run one toy-diffusion scenario")
    _add_scenario_flags(si)
    si.set_defaults(func=cmd_simulate)

    ab = sub.add_parser("ablate", help="sweep the correlation threshold on one scenario")
    _add_scenario_flags(ab)
    ab.add_argument("--deltas", required=True, help="comma-separated threshold list")
    ab.set_defaults(func=cmd_ablate)

    co = sub.add_parser("compare", help="run every fusion strategy on identical noise")
    _add_scenario_flags(co)
    co.set_defaults(func=cmd_compare)

    return p


def _join_delta_flag(argv: list[str]) -> list[str]:
    # let "--deltas -1,2" survive argparse's leading-dash value handling
    out, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg == "--deltas" else None
        out.append(arg if value is None else f"--deltas={value}")
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_delta_flag(argv))
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    # argparse reads the option value "--" (as in --out=--) as an empty list
    if dashed := [key for key, value in vars(args).items() if value == []]:
        print(f"error: option --{dashed[0]} takes a value other than '--'", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
