"""Policy comparison sweeps over retention rates on one bundle."""

from functools import partial

import numpy as np

from ..errors import ParameterError
from .._pool import map_heads
from ..evict import _map_scoring, _select, head_scores, select_topk
from ..kvstore import KVBundle
from ..leverage import exact_leverage


def _score(policy, head):
    l, h, ht = head
    return head_scores(policy, ht.keys_prerope, ht.keys, ht.values, ht.queries, l, h)


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
    r_list = list(r_list)
    if not policies or not r_list:
        raise ParameterError("need at least one policy and one retention rate")
    if any(isinstance(r, bool) or not 0.0 < r <= 1.0 for r in r_list):
        raise ParameterError("retention rates must be in (0, 1]")
    needles = None if needle_indices is None else set(np.asarray(needle_indices, dtype=np.int64).tolist())
    n_min = int(bundle.seq_lens.min())
    if needles and not 0 <= min(needles) <= max(needles) < n_min:
        raise ParameterError(f"needle positions must lie in [0, {n_min}), got {sorted(needles)}")
    heads = [(l, h, bundle.head(l, h)) for l in range(bundle.n_layers) for h in range(bundle.n_kv_heads)]

    # exact leverage depends on neither the policy nor r: one computation per head, one top-k list per rate
    exact_top = [[] for _ in r_list]
    if bundle.has_prerope:
        for ell in map_heads(lambda head: exact_leverage(head[2].keys_prerope).scores, heads):
            for top, r in zip(exact_top, r_list):
                top.append(set(select_topk(ell, r).tolist()))

    rows = []
    for p_idx, policy in enumerate(policies):
        if policy.kind == "random":
            scores = [None] * len(heads)
            q10 = q50 = q90 = float("nan")
        else:
            scores = _map_scoring(policy, partial(_score, policy), heads)
            q10, q50, q90 = (float(q) for q in np.quantile(scores[0].scores, (0.1, 0.5, 0.9)))
        for r, top in zip(r_list, exact_top):
            kept = [
                set(_select(policy, s, ht.keys.shape[0], float(r), l, h).tolist()) for (l, h, ht), s in zip(heads, scores)
            ]
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
