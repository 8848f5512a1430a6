"""Query-agnostic KV-cache token eviction toolkit.

Importance scoring blends two signals computed independently per
(layer, head): geometric outlier scores (approximate statistical leverage
of the pre-rope keys, via randomized right-sketching) and task-driven
attention scores (chunked non-causal attention column sums). The top
ceil(r * N) tokens survive; a fitted context-calibration curve picks the
largest compression a given context supports at a quality budget.
"""

from . import errors
from .attnscore import AttnScoreConfig, h2o_scores, mean_pool, noncausal_scores, snapkv_scores, value_norm_scale
from .calibrate import (
    CalibTriple,
    CalibrationModel,
    calib_value,
    fit_calibration,
    invert_retention,
    load_triples,
)
from .evict import (
    EvictionPolicy,
    POLICY_KINDS,
    blend_scores,
    compress_bundle,
    head_scores,
    random_eviction,
    select_topk,
)
from .kvstore import (
    KVBundle,
    RetainedIndices,
    RetentionPlan,
    ScoreVector,
    apply_plan,
    load_bundle,
    load_plan,
    retained_count,
    save_bundle,
    save_plan,
)
from .leverage import BasisMethod, LeverageResult, approx_leverage, exact_leverage
from .sketch import SketchSpec, apply_sketch, gaussian_sketch

__version__ = "0.1.0"

__all__ = [
    "AttnScoreConfig",
    "BasisMethod",
    "CalibTriple",
    "CalibrationModel",
    "EvictionPolicy",
    "KVBundle",
    "LeverageResult",
    "POLICY_KINDS",
    "RetainedIndices",
    "RetentionPlan",
    "ScoreVector",
    "SketchSpec",
    "apply_plan",
    "apply_sketch",
    "approx_leverage",
    "blend_scores",
    "calib_value",
    "compress_bundle",
    "errors",
    "exact_leverage",
    "fit_calibration",
    "gaussian_sketch",
    "h2o_scores",
    "head_scores",
    "invert_retention",
    "load_bundle",
    "load_plan",
    "load_triples",
    "mean_pool",
    "noncausal_scores",
    "random_eviction",
    "retained_count",
    "save_bundle",
    "save_plan",
    "select_topk",
    "snapkv_scores",
    "value_norm_scale",
]
