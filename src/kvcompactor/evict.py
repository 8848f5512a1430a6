"""Score blending, per-head top-k selection, and bundle compression.

The final ranking signal standardizes the attention and outlier score
vectors and sums them with weight ``lam`` on the outlier side:

    s = zscore(a) + lam * zscore(o)

where zscore uses the population standard deviation with a +1e-8 guard, so
constant vectors contribute ~0 instead of NaN. Selection keeps the
max(1, ceil(r*N)) highest-scoring tokens per head, ties broken toward the
smaller index. Scoring and selection run independently for every
(layer, head); a per-layer retention list lets callers express externally
computed budget schedules.
"""

from dataclasses import asdict, dataclass, replace
from typing import Optional, Union

import numpy as np

from ._pool import map_heads
from .attnscore import AttnScoreConfig, h2o_scores, mean_pool, noncausal_scores, snapkv_scores, value_norm_scale
from .errors import DataError, ParameterError, _check_field
from .kvstore import HeadTensors, KVBundle, RetentionPlan, ScoreVector, _rates, retained_count
from .leverage import approx_leverage
from .sketch import SketchSpec, _rng, child_seed, next_pow2

POLICY_KINDS = ("compactor", "snapkv", "h2o", "random", "leverage_only")
_ZSCORE_EPS = 1e-8


@dataclass(frozen=True)
class EvictionPolicy:
    """Everything needed to reproduce one compression run."""

    kind: str
    retention: Union[float, tuple]
    lam: float = 0.3
    sketch: SketchSpec = SketchSpec(kind="gaussian", target_dim=64, seed=0)
    attn: AttnScoreConfig = AttnScoreConfig()
    seed: int = 0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ParameterError(f"unknown policy kind {self.kind!r}")
        object.__setattr__(self, "retention", _rates(self.retention, ParameterError))
        _check_field("lambda", self.lam, "real", "[0, inf)")
        if not isinstance(self.sketch, SketchSpec):
            raise ParameterError(f"sketch must be a SketchSpec, got {type(self.sketch).__name__}")
        if not isinstance(self.attn, AttnScoreConfig):
            raise ParameterError(f"attn must be an AttnScoreConfig, got {type(self.attn).__name__}")
        _check_field("policy seed", self.seed, "int", "[0, inf)")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lambda": self.lam,
            "retention": list(self.retention) if isinstance(self.retention, tuple) else self.retention,
            "sketch": {"kind": self.sketch.kind, "k": self.sketch.target_dim, "seed": self.sketch.seed},
            "attn": asdict(self.attn),
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EvictionPolicy":
        """The policy a policy file's object describes (to_json_dict writes it): this pair is the policy format.

        An omitted ``attn`` key takes its default; another missing key is a KeyError naming its path ("sketch.seed")."""
        kind, retention, lam, sketch = doc["kind"], doc["retention"], doc["lambda"], doc["sketch"]
        try:
            spec = SketchSpec(kind=sketch["kind"], target_dim=sketch["k"], seed=sketch["seed"])
        except KeyError as exc:
            raise KeyError(f"sketch.{exc.args[0]}") from exc
        attn = AttnScoreConfig(**doc["attn"])
        return cls(kind=kind, retention=retention, lam=lam, sketch=spec, attn=attn, seed=doc["seed"])


def _zscore(v: np.ndarray) -> np.ndarray:
    return (v - v.mean()) / (v.std() + _ZSCORE_EPS)


def blend_scores(a: ScoreVector, o: ScoreVector, lam: float) -> ScoreVector:
    """s = zscore(a) + lam * zscore(o), population std with epsilon guard."""
    if len(a) != len(o):
        raise ParameterError(f"score lengths differ: {len(a)} vs {len(o)}")
    _check_field("lambda", lam, "real")
    return ScoreVector(_zscore(a.scores) + lam * _zscore(o.scores))


def select_topk(s, r: float) -> np.ndarray:
    """Sorted indices of the max(1, ceil(r*N)) largest scores.

    Ties break toward the smaller index (stable sort on descending score).
    A NaN score is a DataError; +inf is allowed, and ranks first.
    """
    v = np.asarray(getattr(s, "scores", s), dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ParameterError("scores must be a non-empty 1-D vector")
    if np.isnan(v.max()):  # max is NaN iff any score is: one read, no mask
        raise DataError("scores contain NaN")
    n, k = v.shape[0], retained_count(r, v.shape[0])
    # the k-th largest score t, found in linear time; every score above t is kept, then the first ties at t
    t = np.partition(v, n - k)[n - k]
    keep = v > t
    keep[np.flatnonzero(v == t)[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def random_eviction(n: int, r: float, seed: int) -> np.ndarray:
    """Seeded uniform sample without replacement of max(1, ceil(r*n)) indices, sorted."""
    _check_field("n", n, "int", "[1, inf)")
    k = retained_count(r, n)
    return np.sort(_rng(seed).choice(n, size=k, replace=False))


def _effective_sketch(spec: SketchSpec, d: int, layer: int, head: int) -> SketchSpec:
    """Per-head sketch: seed derived from the root, k the width leverage runs on ("none" runs on all d)."""
    k = d if spec.kind == "none" else min(spec.target_dim, d if spec.kind == "gaussian" else next_pow2(d))
    return SketchSpec(kind=spec.kind, target_dim=k, seed=child_seed(spec.seed, layer, head))


def head_scores(policy: EvictionPolicy, ht: HeadTensors, layer: int = 0, head: int = 0) -> ScoreVector:
    """Final score vector of one (layer, head) under `policy`.

    Attention scores are computed on the position-embedded keys, outlier
    scores on the pre-embedding keys; (layer, head) seeds the head's sketch.
    The random policy defines no scores, and a policy that needs queries or
    pre-rope keys the head lacks raises DataError.
    """
    kind = policy.kind
    cfg = policy.attn
    if kind == "random":
        raise ParameterError("the random policy has no score vector")

    o = None
    if kind in ("compactor", "leverage_only"):
        if ht.keys_prerope is None:
            raise DataError(f"{kind} policy needs pre-rope keys")
        spec = _effective_sketch(policy.sketch, ht.keys_prerope.shape[1], layer, head)
        o = approx_leverage(ht.keys_prerope, spec).scores
        if kind == "leverage_only":
            return o

    if ht.queries is None:
        raise DataError(f"{kind} policy needs queries")
    if kind == "h2o":
        a = h2o_scores(ht.queries, ht.keys, cfg)
    elif kind == "snapkv":
        # the observation window cannot exceed the context
        w = min(cfg.baseline_window, ht.keys.shape[0])
        a = mean_pool(snapkv_scores(ht.queries, ht.keys, replace(cfg, baseline_window=w)), cfg.pool_window)
    else:
        a = mean_pool(noncausal_scores(ht.queries, ht.keys, cfg), cfg.pool_window)
    if cfg.value_norm:
        a = value_norm_scale(a, ht.values)

    if kind == "compactor":
        return blend_scores(a, o, policy.lam)
    return a


def _select(policy: EvictionPolicy, s: Optional[ScoreVector], n: int, r: float, layer: int, head: int):
    """Sorted retained indices of an n-token head from its scores s (None for random), by the policy's rule.

    snapkv with snap_keep_window keeps the last min(baseline_window, k) tokens
    first: at +inf they outrank every (finite) score.
    """
    if policy.kind == "random":
        return random_eviction(n, r, child_seed(policy.seed, layer, head))
    if policy.kind == "snapkv" and policy.attn.snap_keep_window:
        v = s.scores.copy()
        v[n - min(policy.attn.baseline_window, retained_count(r, n)) :] = np.inf
        return select_topk(v, r)
    return select_topk(s, r)


def _each_head(bundle: KVBundle, fn) -> list:
    """[[fn(bundle.head(l, h), l, h) for each head h] for each layer l], one pool task per (layer, head).

    Every policy's heads share the pool: a worker scores one head at a time, within the memory budget that
    attnscore's module docstring states.
    """
    return map_heads(lambda l, h: fn(bundle.head(l, h), l, h), bundle.n_layers, bundle.n_kv_heads)


def _head_indices(policy: EvictionPolicy, ht: HeadTensors, layer: int, head: int, r: float):
    """Sorted retained indices of one head: its scores, then _select."""
    s = None if policy.kind == "random" else head_scores(policy, ht, layer, head)
    return _select(policy, s, ht.keys.shape[0], r, layer, head)


def compress_bundle(bundle: KVBundle, policy: EvictionPolicy) -> RetentionPlan:
    """Score and select every (layer, head) independently; assemble the plan.

    A pure function of (bundle, policy), including all seeds, so the plan's
    ``metadata["policy"]`` alone reproduces it, on any number of threads:
    heads are scored on one thread per usable core, each holding one head's
    working set (see attnscore's module docstring). A policy that needs queries
    or pre-rope keys the bundle lacks raises DataError from its first head.
    """
    n_layers = bundle.n_layers
    rs = policy.retention if isinstance(policy.retention, tuple) else (policy.retention,) * n_layers
    if len(rs) != n_layers:
        raise ParameterError(f"per-layer retention list has {len(rs)} entries for {n_layers} layers")
    layers = _each_head(bundle, lambda ht, l, h: _head_indices(policy, ht, l, h, rs[l]))
    return RetentionPlan(
        retained=layers,
        retention_target=policy.retention,
        policy_name=policy.kind,
        seed=policy.seed,
        metadata={
            "policy": policy.to_json_dict(),
            "effective_sketch_k": _effective_sketch(policy.sketch, bundle.head_dim, 0, 0).target_dim,
            "n_layers": n_layers,
            "n_kv_heads": bundle.n_kv_heads,
            "head_dim": bundle.head_dim,
            "seq_lens": bundle.seq_lens.tolist(),
        },
    )
