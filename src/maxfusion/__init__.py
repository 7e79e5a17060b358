"""Training-free multi-branch feature-map fusion.

Feature maps from independent conditioning branches are merged per
spatial location: channel vectors that correlate above a threshold are
averaged, the rest are won wholesale by the branch with the larger
normalized channel std.  Unmerging propagates the decision back onto
each branch, rescaling losers to their original signal strength.  An
analytic toy-diffusion simulator exercises the operators end to end
with measurable condition adherence.
"""

from .tensor_core import (
    AVERAGED,
    FeatureMap,
    SelectionMask,
    SpatialMap,
    TensorFormatError,
    make_feature_map,
    read_spatial_map,
    read_tensor,
    write_pgm,
    write_selection_pgm,
    write_tensor,
)
from .stats import channel_std_map, correlation_map, normalized_std_map
from .fusion import (
    FoldResult,
    PairFusionResult,
    maxfusion_fold,
    merge_pair,
    naive_average,
    pure_max_select,
    unmerge_pair,
)
from .simulator import (
    PRESET_NAMES,
    STRATEGIES,
    Branch,
    NoiseSchedule,
    RunReport,
    Scenario,
    SelectionStats,
    analytic_score,
    branch_embedding,
    branch_encode,
    condition_error,
    decode_guidance,
    default_readout,
    preset_scenario,
    run_ablation,
    sample,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "AVERAGED",
    "Branch",
    "FeatureMap",
    "FoldResult",
    "NoiseSchedule",
    "PRESET_NAMES",
    "PairFusionResult",
    "RunReport",
    "STRATEGIES",
    "Scenario",
    "SelectionMask",
    "SelectionStats",
    "SpatialMap",
    "TensorFormatError",
    "analytic_score",
    "branch_embedding",
    "branch_encode",
    "channel_std_map",
    "condition_error",
    "correlation_map",
    "decode_guidance",
    "default_readout",
    "make_feature_map",
    "maxfusion_fold",
    "merge_pair",
    "naive_average",
    "normalized_std_map",
    "preset_scenario",
    "pure_max_select",
    "read_spatial_map",
    "read_tensor",
    "run_ablation",
    "sample",
    "scenario_from_dict",
    "scenario_to_dict",
    "unmerge_pair",
    "write_pgm",
    "write_selection_pgm",
    "write_tensor",
]
