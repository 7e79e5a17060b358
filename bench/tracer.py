"""Outside-in span tracer for the maxfusion layers.

The library carries no instrumentation, so the benchmark wraps each
layer's public functions (and the ``FeatureMap``, ``SpatialMap`` and
``SelectionMask`` constructors) from outside.  ``fusion``, ``simulator``,
``cli`` and the package ``__init__`` re-bind names through
``from .x import ...``, so a wrapper installed only in the defining
module would miss most calls: every module binding that holds the
original object is replaced.

Spans live in memory as flat integer arrays (name, parent span, unit
id, start, end, bytes in, bytes out, failed) and are written out when
the run ends.  Self time is a span's duration minus the durations of
its direct children.  Byte counts are computed from the sizes of the
arrays a call takes and returns (or the byte count an IO call reports);
they are not measured cache or disk traffic.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

#: layer -> public names wrapped in that layer's defining module
TARGETS = {
    "tensor_core": (
        "FeatureMap",
        "SpatialMap",
        "SelectionMask",
        "make_feature_map",
        "read_tensor",
        "read_spatial_map",
        "write_tensor",
        "write_pgm",
        "write_selection_pgm",
    ),
    "stats": ("channel_std_map", "normalized_std_map", "correlation_map"),
    "fusion": ("naive_average", "merge_pair", "pure_max_select", "unmerge_pair", "maxfusion_fold"),
    "simulator": (
        "analytic_score",
        "branch_embedding",
        "branch_encode",
        "decode_guidance",
        "sample",
        "condition_error",
        "run_ablation",
        "preset_scenario",
        "scenario_from_dict",
        "scenario_to_dict",
    ),
    "cli": ("main",),
}

#: every module whose namespace may hold a binding of a wrapped name
MODULES = (
    "maxfusion",
    "maxfusion.tensor_core",
    "maxfusion.stats",
    "maxfusion.fusion",
    "maxfusion.simulator",
    "maxfusion.cli",
)

MXFT_HEADER_BYTES = 28


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _pair_out_bytes(res) -> int:
    return (
        res.f_eff.data.nbytes
        + res.selection.codes.nbytes
        + res.rho.data.nbytes
        + sum(s.data.nbytes for s in res.sigma_hat)
    )


def _one_map(args, kwargs, out):
    return _arg(args, kwargs, 0, "f").data.nbytes, out.data.nbytes


def _two_maps(args, kwargs, out):
    f1, f2 = _arg(args, kwargs, 0, "f1"), _arg(args, kwargs, 1, "f2")
    return f1.data.nbytes + f2.data.nbytes, out.data.nbytes


def _merge(args, kwargs, out):
    f1, f2 = _arg(args, kwargs, 0, "f1"), _arg(args, kwargs, 1, "f2")
    return f1.data.nbytes + f2.data.nbytes, _pair_out_bytes(out)


def _unmerge(args, kwargs, out):
    f1, f2 = _arg(args, kwargs, 0, "f1"), _arg(args, kwargs, 1, "f2")
    res = _arg(args, kwargs, 2, "result")
    read = f1.data.nbytes + f2.data.nbytes + res.f_eff.data.nbytes + res.selection.codes.nbytes
    return read, out[0].data.nbytes + out[1].data.nbytes


def _fold(args, kwargs, out):
    read = sum(b.data.nbytes for b in _arg(args, kwargs, 0, "branches"))
    written = out.f_eff.data.nbytes + sum(u.data.nbytes for u in out.updated)
    return read, written + sum(_pair_out_bytes(r) for r in out.pair_results)


def _average(args, kwargs, out):
    return sum(b.data.nbytes for b in _arg(args, kwargs, 0, "branches")), out.data.nbytes


def _read_tensor(args, kwargs, out):
    return MXFT_HEADER_BYTES + out.data.nbytes, 0


def _written(args, kwargs, out):
    return 0, int(out)


#: qualified name -> (args, kwargs, result) -> (bytes read, bytes written)
BYTE_COUNTERS = {
    "stats.channel_std_map": _one_map,
    "stats.normalized_std_map": _one_map,
    "stats.correlation_map": _two_maps,
    "fusion.naive_average": _average,
    "fusion.merge_pair": _merge,
    "fusion.pure_max_select": _merge,
    "fusion.unmerge_pair": _unmerge,
    "fusion.maxfusion_fold": _fold,
    "tensor_core.read_tensor": _read_tensor,
    "tensor_core.write_tensor": _written,
    "tensor_core.write_pgm": _written,
    "tensor_core.write_selection_pgm": _written,
}

#: merges whose selection mask feeds fusion.averaged_fraction
MERGES = ("fusion.merge_pair", "fusion.pure_max_select")


class Tracer:
    """Records one span per call into a wrapped name while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.unit = -1
        self._stack: list[int] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.unit_id = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.bytes_in = array("q")
        self.bytes_out = array("q")
        self.failed = array("b")
        self.averaged_fractions: list[float] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> int:
        """Wrap every target at every binding; returns the bindings patched.

        The wrappers are built on the first call and reused after an
        uninstall, so a run can switch tracing on and off between units.
        Raises LookupError before patching anything if a target name is
        missing from its defining module.
        """
        if not self._bindings:
            self._bindings = self._find_bindings()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        return len(self._bindings)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        mods = {name: importlib.import_module(name) for name in MODULES}
        missing = [
            f"{layer}.{name}"
            for layer, names in TARGETS.items()
            for name in names
            if not hasattr(mods[f"maxfusion.{layer}"], name)
        ]
        if missing:
            raise LookupError(f"traced names missing from maxfusion: {', '.join(missing)}")
        bindings = []
        for layer, names in TARGETS.items():
            home = mods[f"maxfusion.{layer}"]
            for name in names:
                qual = f"{layer}.{name}"
                original = getattr(home, name)
                if isinstance(original, type):
                    init = original.__init__
                    bindings.append((original, "__init__", init, self._wrap(qual, init)))
                    continue
                wrapper = self._wrap(qual, original)
                for mod in mods.values():
                    for attr, value in vars(mod).items():
                        if value is original:
                            bindings.append((mod, attr, original, wrapper))
        return bindings

    def unwrapped_bindings(self) -> list[str]:
        """Module bindings that still hold an unwrapped target (empty when installed)."""
        mods = {name: importlib.import_module(name) for name in MODULES}
        left = []
        for layer, names in TARGETS.items():
            home = mods[f"maxfusion.{layer}"]
            for name in names:
                target = getattr(home, name)
                if isinstance(target, type):
                    if not hasattr(target.__init__, "__wrapped__"):
                        left.append(f"{layer}.{name}.__init__")
                    continue
                original = getattr(target, "__wrapped__", target)
                for mod_name, mod in mods.items():
                    for attr, value in vars(mod).items():
                        if value is original:
                            left.append(f"{mod_name}.{attr}")
        return left

    def _wrap(self, qual: str, fn):
        nid = len(self.names)
        self.names.append(qual)
        count = BYTE_COUNTERS.get(qual)
        fracs = self.averaged_fractions if qual in MERGES else None
        stack = self._stack
        names, parents, units = self.name_id, self.parent, self.unit_id
        starts, ends, b_in, b_out, failed = (
            self.start_ns, self.end_ns, self.bytes_in, self.bytes_out, self.failed
        )
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            units.append(tracer.unit)
            starts.append(0)
            ends.append(0)
            b_in.append(0)
            b_out.append(0)
            failed.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                b_in[idx], b_out[idx] = count(args, kwargs, out)
            if fracs is not None:
                fracs.append(out.selection.averaged_fraction())
            return out

        return traced

    # -- results ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "unit": np.frombuffer(self.unit_id, dtype=np.int64),
            "start_ns": np.frombuffer(self.start_ns, dtype=np.int64),
            "end_ns": np.frombuffer(self.end_ns, dtype=np.int64),
            "bytes_in": np.frombuffer(self.bytes_in, dtype=np.int64),
            "bytes_out": np.frombuffer(self.bytes_out, dtype=np.int64),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
        }

    def write(self, path) -> None:
        """Write every span, plus the name table, as an uncompressed .npz."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_name(self) -> dict[str, dict[str, float]]:
        """Totals per wrapped name: calls, self/inclusive ns, bytes, failures.

        ``outer_*`` fields count only spans whose parent lies in another
        layer, so a layer's bytes and time are not counted twice when
        one of its functions calls another.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        self_ns = dur - child
        layer_of = np.array([q.split(".")[0] for q in self.names])
        parent_name = np.where(nested, a["name_id"][np.where(nested, a["parent"], 0)], -1)
        outer = ~nested | (layer_of[parent_name] != layer_of[a["name_id"]])
        moved = (a["bytes_in"] + a["bytes_out"]).astype(np.float64)

        def tally(weights=None, mask=None):
            ids = a["name_id"] if mask is None else a["name_id"][mask]
            if weights is not None and mask is not None:
                weights = weights[mask]
            return np.bincount(ids, weights=weights, minlength=n_names)

        calls = tally()
        totals = {
            "calls": calls,
            "self_ns": tally(self_ns),
            "incl_ns": tally(dur),
            "bytes": tally(moved),
            "failed": tally(a["failed"].astype(np.float64)),
            "outer_bytes": tally(moved, outer),
            "outer_incl_ns": tally(dur, outer),
        }
        return {
            qual: {key: float(vals[i]) for key, vals in totals.items()}
            for i, qual in enumerate(self.names)
        }
