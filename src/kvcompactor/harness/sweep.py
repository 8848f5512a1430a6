"""Policy comparison sweeps over retention rates on one bundle."""

import numpy as np

from ..errors import ParameterError, _check_field
from ..evict import _each_head, _select, head_scores, select_topk
from ..kvstore import KVBundle, _rates
from ..leverage import exact_leverage


def _needle_position(p) -> int:
    _check_field("needle position", p, "int")
    return int(p)


def sweep_policies(bundle: KVBundle, policies, r_list, needle_indices=None) -> list:
    """One summary row per (policy, retention rate).

    Each row reports the mean per-head overlap of the retained set with the
    exact-leverage top-k, whether every planted needle survived (when
    ``needle_indices`` is given), and quantiles of the head-0 score
    distribution (NaN for the score-free random policy). Each (policy, head)
    is scored once, on compress_bundle's thread pool and in its head order,
    then selected at every rate by compress_bundle's per-head rule, so one
    policy's L×H float64 score vectors are held at a time.
    """
    policies = list(policies)
    if not policies:
        raise ParameterError("need at least one policy")
    r_list = _rates(list(r_list), ParameterError)
    needles = None if needle_indices is None else set(map(_needle_position, needle_indices))
    n_min = int(bundle.seq_lens.min())
    if needles and not 0 <= min(needles) <= max(needles) < n_min:
        raise ParameterError(f"needle positions must lie in [0, {n_min}), got {sorted(needles)}")

    # exact leverage depends on neither the policy nor r: one computation per head, one top-k list per rate
    exact_top = [[] for _ in r_list]
    if bundle.has_prerope:
        exact = _each_head(bundle, lambda ht, l, h: exact_leverage(ht.keys_prerope).scores)
        exact_top = [[set(select_topk(ell, r).tolist()) for layer in exact for ell in layer] for r in r_list]

    rows = []
    for p_idx, policy in enumerate(policies):
        # what selecting a head at any rate needs: its scores (None for random), N, layer and head
        def scored(ht, l, h):
            return None if policy.kind == "random" else head_scores(policy, ht, l, h), ht.keys.shape[0], l, h

        heads = [head for layer in _each_head(bundle, scored) for head in layer]
        if policy.kind == "random":
            q10 = q50 = q90 = float("nan")
        else:
            q10, q50, q90 = (float(q) for q in np.quantile(heads[0][0].scores, (0.1, 0.5, 0.9)))
        for r, top in zip(r_list, exact_top):
            kept = [set(_select(policy, s, n, r, l, h).tolist()) for s, n, l, h in heads]
            overlaps = [len(k & ref) / len(ref) for k, ref in zip(kept, top)]
            rows.append(
                {
                    "policy_index": p_idx,
                    "policy": policy.kind,
                    "r": r,
                    "retained_per_head": len(kept[0]),
                    "exact_leverage_overlap": float(np.mean(overlaps)) if overlaps else float("nan"),
                    "needle_retained": int(all(needles <= k for k in kept)) if needles is not None else "",
                    "score_q10": q10,
                    "score_q50": q50,
                    "score_q90": q90,
                }
            )
    return rows
