"""Analytic toy conditional-diffusion testbed for the fusion operators.

Real feature fusion happens inside a pretrained denoiser, which is not
desk-reproducible.  This simulator keeps the iterative sampler but
replaces the network with closed forms:

* the data prior is an elementwise Gaussian N(prior_mean, prior_std^2),
  so the score of every noised marginal is available exactly and
  ancestral sampling needs no training;
* each conditioning branch is a synthetic encoder producing a feature
  map whose channel std tracks local condition violation by
  construction: g_b[:, j, k] = strength * mask[j, k] *
  (target[j, k] - x0_hat[j, k]) * w_b, with w_b the branch's embedding
  vector.  Outside a branch's mask its features are exactly zero, and
  where the sample already matches the target they vanish, so "condition
  strength shows up as channel variance" holds by design and the fusion
  gates are exercised honestly;
* the uniform read-out u = 1/C (the channel mean), with <u, w_b> = 1,
  decodes any fused feature back to a scalar per-pixel guidance field,
  which is added to the analytic score with weight guidance_weight
  during the reverse update.

Branch embeddings are built from Hadamard directions when the channel
count is a power of two, making their pairwise geometry exact: at their
amplitude 0.5 two branch embeddings have cosine similarity exactly 0.8,
so overlapping same-target branches land above the default correlation
gate (DEFAULT_DELTA, 0.7).

Every run is deterministic given its seed: one generator is consumed in
a fixed order (initial state first, then one noise field per step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .fusion import DEFAULT_DELTA, MAX_SELECT_DELTA, PairFusionResult, _merge_chain, naive_average
from .tensor_core import AVERAGED, FeatureMap, _check_finite, _freeze, _instance, _integer, _real
from .tensor_core import _real_array, _shown

STRATEGIES = ("maxfusion", "naive", "max_select", "single", "unconditional")
#: Each preset branch: its mask rectangle (rows r0:r1, columns c0:c1) and constant target.
_PRESET_BRANCHES = {
    "contradictory": (((2, 14, 1, 7), 2.0), ((2, 14, 9, 15), -2.0)),
    "complementary": (((4, 12, 4, 12), 1.5), ((4, 12, 4, 12), 1.5)),
    "three_way": (((1, 15, 0, 5), 2.0), ((1, 15, 6, 10), -2.0), ((1, 15, 11, 16), 1.0)),
}
PRESET_NAMES = tuple(_PRESET_BRANCHES)
#: std(w) of every branch embedding w, whose mean is 1
_AMPLITUDE = 0.5

#: Upper bounds on a scenario's sizes, checked by Scenario and NoiseSchedule
#: before anything of that size is allocated.
MAX_STEPS = 10_000
MAX_GRID_SIDE = 1024
MAX_CHANNELS = 4096
MAX_FEATURE_VALUES = 1 << 24  # channels * height * width times the branch count (at least 1)


def _bad(path: str, want: str, value) -> ValueError:
    return ValueError(f"scenario field '{path}' must be {want}, got {_shown(value)}")


class NoiseSchedule:
    """Forward-diffusion beta schedule: 1 to MAX_STEPS betas in (0, 1).

    linear checks its step count before allocating; errors name the JSON
    key, such as ``schedule.steps``.
    """

    __slots__ = ("betas", "alpha_bar")

    def __init__(self, betas):
        betas = _real_array("scenario field 'schedule.betas'", betas)
        if betas.ndim != 1 or not 1 <= betas.size <= MAX_STEPS:
            raise ValueError(f"scenario field 'schedule.betas' must be a 1-D array of 1 to "
                             f"{MAX_STEPS} values, got shape {betas.shape}")
        if not ((betas > 0.0) & (betas < 1.0)).all():
            raise ValueError("scenario field 'schedule.betas' must lie strictly in (0, 1)")
        self.betas = _freeze(betas)
        alpha_bar = np.cumprod(1.0 - betas)
        if betas.size > 1 and not (np.diff(alpha_bar) < 0).all():
            raise ValueError("scenario field 'schedule.betas' must give strictly decreasing "
                             "cumulative alpha products")
        self.alpha_bar = _freeze(alpha_bar)

    @property
    def steps(self) -> int:
        return int(self.betas.size)

    @classmethod
    def linear(cls, steps: int = 50, beta_start: float = 1e-4, beta_end: float = 0.02):
        if not 1 <= (steps := _integer("scenario field 'schedule.steps'", steps)) <= MAX_STEPS:
            raise _bad("schedule.steps", f"in [1, {MAX_STEPS}]", steps)
        bounds = []  # floats: np.float32 bounds would make linspace step in float32
        for key, beta in (("beta_start", beta_start), ("beta_end", beta_end)):
            if not 0.0 < (real := _real(f"scenario field 'schedule.{key}'", beta)) < 1.0:
                raise _bad(f"schedule.{key}", "a number in (0, 1)", beta)
            bounds.append(real)
        return cls(np.linspace(*bounds, steps))


def _hadamard_row(size: int, k: int) -> np.ndarray:
    signs = [1.0 if bin(c & k).count("1") % 2 == 0 else -1.0 for c in range(size)]
    return np.array(signs)


def branch_embedding(channels: int, index: int) -> np.ndarray:
    """Embedding w = 1 + a * v with a = 0.5, mean(v) = 0 and std(v) = 1.

    Against the uniform read-out u = 1/C this gives <u, w> = 1 exactly
    and std(w) = a.  For power-of-two channel counts v is a Hadamard row,
    so distinct indices are exactly orthogonal and any two embeddings
    have cosine similarity 1 / (1 + a^2) = 0.8; otherwise a centered
    cosine pattern is used.
    """
    channels, index = _integer("channels", channels), _integer("index", index)
    if channels < 2:
        raise ValueError("need at least 2 channels for a non-degenerate embedding")
    if channels > MAX_CHANNELS:  # before _hadamard_row builds a list of that many signs
        raise ValueError(f"channels must be <= {MAX_CHANNELS}, got {channels}")
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    k = index + 1
    if channels & (channels - 1) == 0 and k < channels:
        direction = _hadamard_row(channels, k)
    else:
        grid = np.arange(channels, dtype=np.float64)
        raw = np.cos(np.pi * k * (2.0 * grid + 1.0) / (2.0 * channels))
        raw = raw - raw.mean()
        sd = raw.std()
        if sd < 1e-9:
            raise ValueError(f"degenerate embedding direction for index {index}")
        direction = raw / sd
    return 1.0 + _AMPLITUDE * direction


@dataclass(frozen=True, eq=False)
class Branch:
    """One synthetic conditioning branch, checked when it enters a Scenario.

    mask: (H, W) spatial support in [0, 1].
    target: (H, W) desired image content inside the mask.
    embedding: C-vector w with <u, w> = 1 against the uniform read-out u.
    strength: positive scaling of the encoded signal.
    """

    mask: np.ndarray
    target: np.ndarray
    embedding: np.ndarray
    strength: float = 1.0


@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete specification of one toy-diffusion run.

    The value rules live here for Python and JSON callers alike, each
    error naming its field by its JSON path (``branches[1].mask``); sizes
    are bounded before any allocation.  Each branch is stored as a new
    Branch of frozen float64 copies, also through dataclasses.replace.
    """

    height: int
    width: int
    channels: int = 8
    schedule: NoiseSchedule = field(default_factory=NoiseSchedule.linear)
    branches: tuple[Branch, ...] = ()
    guidance_weight: float = 1.5
    prior_mean: float = 0.0
    prior_std: float = 1.0
    seed: int = 42
    delta: float = DEFAULT_DELTA
    strategy: str = "maxfusion"
    single_branch: int = 0

    def __post_init__(self):
        # Python ints, so the size product below cannot wrap as a numpy integer's would
        for key in ("height", "width", "channels", "seed", "single_branch"):
            object.__setattr__(self, key, _integer(f"scenario field '{key}'", getattr(self, key)))
        # sizes first: the read-out below is allocated from them
        sizes = {"height": MAX_GRID_SIDE, "width": MAX_GRID_SIDE, "channels": MAX_CHANNELS}
        for key, hi in sizes.items():
            if not 1 <= (value := getattr(self, key)) <= hi:
                raise _bad(key, f"in [1, {hi}]", value)
        _instance("scenario field 'schedule'", self.schedule, NoiseSchedule)
        branches = _instance("scenario field 'branches'", self.branches, (list, tuple))
        n = max(1, len(branches))  # sample() holds every branch's feature at once
        if n * self.channels * self.height * self.width > MAX_FEATURE_VALUES:
            raise ValueError(
                f"scenario fields 'channels' * 'height' * 'width' * 'branches' (at least 1) "
                f"must be <= {MAX_FEATURE_VALUES}, "
                f"got {self.channels} * {self.height} * {self.width} * {n}"
            )
        for key in ("guidance_weight", "prior_mean", "prior_std"):
            object.__setattr__(self, key, _real(f"scenario field '{key}'", getattr(self, key)))
        object.__setattr__(self, "delta", _real("delta", self.delta))
        for key in ("guidance_weight", "prior_std", "seed", "single_branch"):
            if (value := getattr(self, key)) < 0:
                raise _bad(key, ">= 0", value)
        if self.strategy not in STRATEGIES:
            raise _bad("strategy", f"one of {STRATEGIES}", self.strategy)
        if self.strategy == "single" and self.single_branch >= len(branches):
            raise ValueError(
                f"scenario field 'single_branch' must index a branch, got {self.single_branch}"
            )
        grid = (self.height, self.width), "'height' and 'width'"
        shapes = {"mask": grid, "target": grid, "embedding": ((self.channels,), "'channels'")}
        u = np.full(self.channels, 1.0 / self.channels)
        checked = []
        for i, br in enumerate(branches):
            path = f"branches[{i}]"
            _instance(f"scenario field '{path}'", br, Branch)
            arrays = {}
            for key, (shape, source) in shapes.items():  # each a new array, frozen once it fits
                arr = _real_array(f"scenario field '{path}.{key}'", getattr(br, key))
                if arr.shape != shape:
                    raise ValueError(f"scenario field '{path}.{key}' must have shape {shape} "
                                     f"from {source}, got {arr.shape}")
                arrays[key] = _freeze(arr)
            if not ((arrays["mask"] >= 0.0) & (arrays["mask"] <= 1.0)).all():
                raise ValueError(f"scenario field '{path}.mask' must lie in [0, 1]")
            if (strength := _real(f"scenario field '{path}.strength'", br.strength)) <= 0:
                raise _bad(f"{path}.strength", "> 0", strength)
            if abs((dot := float(u @ arrays["embedding"])) - 1.0) > 1e-6:
                raise ValueError(
                    f"scenario field '{path}.embedding' violates the read-out identity: "
                    f"<u, w> = {dot!r}, expected 1 within 1e-6"
                )
            checked.append(Branch(**arrays, strength=strength))
        object.__setattr__(self, "branches", tuple(checked))


@dataclass(eq=False)
class RunReport:
    """Outcome of one simulator run; delta is the correlation gate it fused at.

    step_stats has one tuple of merge events per step, t = T-1 first; an
    event is one selection mask's (averaged, branch 0 wins, branch 1 wins),
    then tied: the share of locations won with both sigma_hat exactly equal,
    which the tie rule gives to branch 0, so it is part of its wins.
    """

    final_sample: np.ndarray
    branch_mse: tuple[float, ...]
    step_stats: tuple[tuple[tuple[float, float, float, float], ...], ...]
    seed: int
    strategy: str
    delta: float | None

    @property
    def averaged_fraction(self) -> float:
        """Mean averaged fraction over all merge events; NaN if none occurred."""
        fracs = [ev[0] for step in self.step_stats for ev in step]
        return float(np.mean(fracs)) if fracs else math.nan

    def per_step_averaged_fraction(self) -> tuple[float, ...]:
        return tuple(
            float(np.mean([ev[0] for ev in step])) if step else math.nan
            for step in self.step_stats
        )

    def same_outputs(self, other: "RunReport") -> bool:
        """Equality of every field, the final sample compared by value."""
        return (
            self.seed == other.seed
            and self.strategy == other.strategy
            and self.delta == other.delta
            and self.branch_mse == other.branch_mse
            and self.step_stats == other.step_stats
            and bool(np.array_equal(self.final_sample, other.final_sample))
        )


def _marginal(schedule: NoiseSchedule, t: int, prior_mean: float, prior_std: float):
    abar = float(schedule.alpha_bar[t])
    mean = math.sqrt(abar) * prior_mean
    var = abar * prior_std * prior_std + 1.0 - abar
    return mean, var


def analytic_score(
    x: np.ndarray,
    t: int,
    schedule: NoiseSchedule,
    prior_mean: float = 0.0,
    prior_std: float = 1.0,
) -> np.ndarray:
    """Exact score of the noised Gaussian prior at step t.

    The marginal at step t is N(sqrt(abar_t) * mu, abar_t * sigma^2 +
    1 - abar_t) elementwise, so the score is -(x - mean) / variance.
    """
    _instance("schedule", schedule, NoiseSchedule)
    if not 0 <= (t := _integer("step index", t)) < schedule.steps:
        raise ValueError(f"step index {t} out of range [0, {schedule.steps})")
    prior = _real("prior_mean", prior_mean), _real("prior_std", prior_std)
    mean, var = _marginal(schedule, t, *prior)
    return -(np.asarray(x, dtype=np.float64) - mean) / var


def branch_encode(scenario: Scenario, b: int, x0_hat: np.ndarray) -> FeatureMap:
    """Encode branch b's condition against the current clean-image estimate.

    The channel vector at (j, k) is strength * mask * (target - x0_hat)
    times the branch embedding, so its channel std is
    strength * mask * |residual| * std(w): zero outside the mask, zero
    where the condition is already satisfied, and growing with local
    violation inside it.
    """
    _instance("scenario", scenario, Scenario)
    if not 0 <= (b := _integer("branch index", b)) < len(scenario.branches):
        raise ValueError(f"branch index {b} out of range [0, {len(scenario.branches)})")
    grid = (scenario.height, scenario.width)
    if (x0_hat := np.asarray(x0_hat, dtype=np.float64)).shape != grid:
        raise ValueError(f"x0_hat shape {x0_hat.shape} != scenario grid {grid}")
    br = scenario.branches[b]
    signal = br.strength * br.mask * (br.target - x0_hat)
    data = br.embedding[:, np.newaxis, np.newaxis] * signal[np.newaxis]
    with np.errstate(over="ignore"):  # the finite check is the divergence detector, not a warning
        return FeatureMap._adopt(_check_finite(data.astype(np.float32)))


def decode_guidance(f_eff: FeatureMap) -> np.ndarray:
    """Project a (fused) feature map onto the uniform read-out u = 1/C per location.

    Decoding a single un-fused branch encoding recovers its
    strength * mask * residual field exactly, by the <u, w> = 1 identity.
    """
    c = _instance("f_eff", f_eff, FeatureMap).channels
    u = np.full(c, 1.0 / c)  # a weighted sum: .mean() differs in the last bit at C = 6
    return (u[:, np.newaxis, np.newaxis] * f_eff.data.astype(np.float64)).sum(axis=0)


def _gate(scenario: Scenario) -> float | None:
    """The correlation gate a run fuses at; None for single and unconditional.

    naive counts as delta = -1, where every location averages.
    """
    gates = {"maxfusion": scenario.delta, "max_select": MAX_SELECT_DELTA, "naive": -1.0}
    return gates.get(scenario.strategy)


def _event(pair: PairFusionResult) -> tuple[float, float, float, float]:
    """A merge event: the mask's three fractions, then the share of locations won on a tie."""
    codes = pair.selection.codes
    s1_hat, s2_hat = (s.data for s in pair.sigma_hat)
    tied = int(np.count_nonzero((codes != AVERAGED) & (s1_hat == s2_hat))) / codes.size
    return (*pair.selection._fractions(), tied)


def _apply_strategy(scenario: Scenario, delta: float | None, feats: tuple[FeatureMap, ...]):
    strat = scenario.strategy
    if strat in ("maxfusion", "max_select"):
        if len(feats) == 1:
            return feats[0], ()
        pairs = _merge_chain(feats, delta)
        return pairs[-1].f_eff, tuple(map(_event, pairs))
    if strat == "naive":
        # one all-averaged merge event, so the stats line up with a
        # maxfusion run at the same gate
        return naive_average(list(feats)), ((1.0, 0.0, 0.0, 0.0),)
    # single is all that is left: Scenario admits only STRATEGIES, and unconditional never fuses
    return feats[scenario.single_branch], ()


def _encode_branches(scenario: Scenario, x0_hat: np.ndarray, t: int) -> tuple[FeatureMap, ...]:
    feats = []
    for b in range(len(scenario.branches)):
        try:
            feats.append(branch_encode(scenario, b, x0_hat))
        except ValueError as exc:
            raise ValueError(f"sampler diverged at step t={t} in branch {b}: {exc}") from None
    return tuple(feats)


def sample(scenario: Scenario) -> RunReport:
    """Run the full guided ancestral loop and score the result.

    Steps go t = T-1 .. 0.  Each step estimates the clean image from the
    analytic posterior mean, encodes every branch against it, applies
    the configured fusion strategy, decodes the fused feature to a
    scalar guidance field g, and takes the score-form ancestral update
    with effective score (analytic score + guidance_weight * g), adding
    sqrt(beta_t) noise for every step but the last.  The maxfusion and
    max_select strategies run only the fold's merges: the encoders are
    stateless, so no unmerged feature is fed back.

    A run whose state grows past float32 range (a guidance weight far
    too large, say) raises ValueError naming the step t, and the branch
    when one branch's encoding overflowed, instead of emitting numpy
    overflow warnings.
    """
    sched = _instance("scenario", scenario, Scenario).schedule
    steps = sched.steps
    rng = np.random.default_rng(scenario.seed)
    shape = (scenario.height, scenario.width)

    lam = scenario.guidance_weight
    delta = _gate(scenario)
    conditioned = scenario.strategy != "unconditional" and len(scenario.branches) > 0
    step_stats = []

    # overflow surfaces as the ValueErrors below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        mean0, var0 = _marginal(sched, steps - 1, scenario.prior_mean, scenario.prior_std)
        x = mean0 + math.sqrt(var0) * rng.standard_normal(shape)
        for t in range(steps - 1, -1, -1):
            score = analytic_score(x, t, sched, scenario.prior_mean, scenario.prior_std)
            s_eff = score
            events = ()
            if conditioned:
                abar = float(sched.alpha_bar[t])
                x0_hat = (x + (1.0 - abar) * score) / math.sqrt(abar)
                feats = _encode_branches(scenario, x0_hat, t)
                f_eff, events = _apply_strategy(scenario, delta, feats)
                if lam != 0.0:
                    s_eff = score + lam * decode_guidance(f_eff)
            beta = float(sched.betas[t])
            mean = (x + beta * s_eff) / math.sqrt(1.0 - beta)
            if t > 0:
                x = mean + math.sqrt(beta) * rng.standard_normal(shape)
            else:
                x = mean
            step_stats.append(events)
    # earlier states are checked by the next step's float32 encoding; NaN fails here too
    if not (np.abs(x) <= np.finfo(np.float32).max).all():
        raise ValueError("sampler diverged: the final sample is non-finite in float32")

    return RunReport(
        final_sample=_freeze(x),
        branch_mse=condition_error(x, scenario),
        step_stats=tuple(step_stats),
        seed=scenario.seed,
        strategy=scenario.strategy,
        delta=delta,
    )


def condition_error(sample_field: np.ndarray, scenario: Scenario) -> tuple[float, ...]:
    """Masked MSE of the sample against each branch's target.

    Empty masks score 0 by convention.
    """
    _instance("scenario", scenario, Scenario)
    s = _real_array("sample", sample_field)
    if s.shape != (grid := (scenario.height, scenario.width)):
        raise ValueError(f"sample shape {s.shape} != scenario grid {grid}")
    out = []
    for br in scenario.branches:
        denom = float(br.mask.sum())
        if denom == 0.0:
            out.append(0.0)
        else:
            out.append(float((br.mask * (s - br.target) ** 2).sum() / denom))
    return tuple(out)


def run_ablation(scenario: Scenario, deltas) -> tuple[RunReport, ...]:
    """Re-run the scenario as maxfusion at each threshold, sharing the seed.

    Returns one RunReport per delta, in order; each report's delta is
    its threshold.  Because every run replays identical noise,
    tightening the gate can only shrink the set of averaged locations
    step by step, so the averaged fraction is non-increasing in delta.
    """
    _instance("scenario", scenario, Scenario)
    if not _instance("deltas", deltas, (list, tuple)):
        raise ValueError("need at least one delta")
    deltas = [_real("delta", d) for d in deltas]  # every delta is checked before the first run
    # each variant copies the branch arrays, so it is built only when its run starts
    return tuple(sample(replace(scenario, strategy="maxfusion", delta=d)) for d in deltas)


def _rect(h: int, w: int, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    m = np.zeros((h, w))
    m[r0:r1, c0:c1] = 1.0
    return m


def preset_scenario(name: str) -> Scenario:
    """Named 16x16 scenarios covering the interesting fusion regimes.

    contradictory: two branches with disjoint rectangular masks pulling
    toward different targets; their encodings never overlap, so rho is 0
    everywhere and fusion always routes through variance selection.
    complementary: two branches sharing one mask and target through
    different embeddings; inside the overlap their encodings are
    parallel up to embedding geometry (cosine 0.8), exercising the
    averaging path at the default gate.
    three_way: three disjoint branches for the incremental fold.

    Every other field keeps its Scenario default (see dataclasses.replace).
    """
    if name not in PRESET_NAMES:
        raise ValueError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        )
    h = w = 16
    branches = [
        Branch(
            mask=_rect(h, w, *rect),
            target=np.full((h, w), target),
            embedding=branch_embedding(Scenario.channels, i),
        )
        for i, (rect, target) in enumerate(_PRESET_BRANCHES[name])
    ]
    return Scenario(height=h, width=w, branches=branches)


def _typed(value, path: str, kind: type, want: str):
    """A JSON value of one type, passed through unchanged."""
    if not isinstance(value, kind):
        raise _bad(path, want, value)
    return value


_object = partial(_typed, kind=dict, want="an object")
_array = partial(_typed, kind=list, want="an array")


def _present(d: dict, prefix: str, keys: tuple, required=(), nested=()) -> dict:
    """The keys of d that keys names, values as they are; absent keys keep their defaults.

    Any other key, unless the caller reads it (``nested``), is rejected.
    """
    known = [*keys, *nested]
    if unknown := [key for key in d if key not in known]:
        raise ValueError(f"scenario field '{prefix}{unknown[0]}' is not one of: {', '.join(known)}")
    for key in required:
        if key not in d:
            raise ValueError(f"scenario field '{prefix}{key}' is required")
    return {key: d[key] for key in keys if key in d}


_SCENARIO_KEYS = (
    "height", "width", "channels", "guidance_weight", "prior_mean", "prior_std", "seed",
    "strategy", "single_branch",
)
_LINEAR_SCHEDULE_KEYS = ("steps", "beta_start", "beta_end")
_BRANCH_REQUIRED = ("mask", "target", "embedding")
_BRANCH_KEYS = (*_BRANCH_REQUIRED, "strength")


def _fields(obj, keys: tuple) -> dict:
    """obj's attributes named by a loader key tuple, arrays as nested lists."""
    values = {key: getattr(obj, key) for key in keys}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def scenario_to_dict(s: Scenario) -> dict:
    """Mirror a Scenario as a JSON-ready dict with the keys scenario_from_dict reads."""
    _instance("s", s, Scenario)
    return {
        **_fields(s, _SCENARIO_KEYS),
        "schedule": {"betas": s.schedule.betas.tolist()},
        "fusion": {"delta": s.delta},
        "branches": [_fields(br, _BRANCH_KEYS) for br in s.branches],
    }


def scenario_from_dict(d: dict) -> Scenario:
    """Build and validate a Scenario from a JSON-shaped dict.

    The loader checks only the structure: that each object and array
    field holds a JSON object or array, that every required key is
    present, and that no unknown key is (each named by its dotted path,
    such as ``fusion.detla``).  Values pass to the constructors as they
    are, and Scenario and NoiseSchedule check them under the same JSON
    path (``height``, ``schedule.steps``, ``branches[0].mask``).  The one
    exception is ``fusion.delta``, checked here because it fills
    Scenario.delta.  Absent keys take their defaults.  The schedule
    accepts either an explicit {"betas": [...]} list or linear parameters
    {"steps", "beta_start", "beta_end"}, never both.
    """
    if not isinstance(d, dict):
        raise ValueError(f"a scenario must be a JSON object, got {type(d).__name__}")
    kw = _present(d, "", _SCENARIO_KEYS, ("height", "width"), ("schedule", "fusion", "branches"))
    if "schedule" in d:
        sched_d = _object(d["schedule"], "schedule")
        if "betas" in sched_d:
            kw["schedule"] = NoiseSchedule(**_present(sched_d, "schedule.", ("betas",)))
        else:
            fields = _present(sched_d, "schedule.", _LINEAR_SCHEDULE_KEYS)
            kw["schedule"] = NoiseSchedule.linear(**fields)
    if "fusion" in d:
        fusion = _present(_object(d["fusion"], "fusion"), "fusion.", ("delta",))
        if "delta" in fusion:
            kw["delta"] = _real("scenario field 'fusion.delta'", fusion["delta"])
    if "branches" in d:
        kw["branches"] = []
        for i, bd in enumerate(_array(d["branches"], "branches")):
            bd = _object(bd, f"branches[{i}]")
            fields = _present(bd, f"branches[{i}].", _BRANCH_KEYS, required=_BRANCH_REQUIRED)
            kw["branches"].append(Branch(**fields))
    return Scenario(**kw)
