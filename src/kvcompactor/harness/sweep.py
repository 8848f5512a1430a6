"""Policy comparison sweeps over retention rates on one bundle."""

from dataclasses import replace

import numpy as np

from ..errors import ParameterError
from ..evict import compress_bundle, head_scores, select_topk
from ..kvstore import KVBundle
from ..leverage import exact_leverage


def sweep_policies(bundle: KVBundle, policies, r_list, needle_indices=None) -> list:
    """One summary row per (policy, retention rate).

    Each row reports the mean per-head overlap of the retained set with the
    exact-leverage top-k, whether every planted needle survived (when
    ``needle_indices`` is given), and quantiles of the head-0 score
    distribution (NaN for the score-free random policy).
    """
    policies = list(policies)
    r_list = list(r_list)
    if not policies or not r_list:
        raise ParameterError("need at least one policy and one retention rate")
    if any(not 0.0 < r <= 1.0 for r in r_list):
        raise ParameterError("retention rates must be in (0, 1]")
    needles = None if needle_indices is None else set(np.asarray(needle_indices, dtype=np.int64).tolist())

    # exact leverage depends on neither the policy nor r: one computation per head
    exact_top = {}
    if bundle.has_prerope:
        for l in range(bundle.n_layers):
            for h in range(bundle.n_kv_heads):
                ell = exact_leverage(bundle.head(l, h).keys_prerope).scores
                for r in r_list:
                    exact_top[l, h, r] = set(select_topk(ell, r).tolist())

    rows = []
    for p_idx, policy in enumerate(policies):
        # scores do not depend on r either: head (0, 0) is scored once per policy
        if policy.kind == "random":
            q10 = q50 = q90 = float("nan")
        else:
            ht = bundle.head(0, 0)
            s = head_scores(policy, ht.keys_prerope, ht.keys, ht.values, ht.queries, 0, 0)
            q10, q50, q90 = (float(q) for q in np.quantile(s.scores, (0.1, 0.5, 0.9)))
        for r in r_list:
            plan = compress_bundle(bundle, replace(policy, retention=r))
            overlaps = []
            needle_ok = True
            for l in range(bundle.n_layers):
                for h in range(bundle.n_kv_heads):
                    kept = set(plan.retained[l][h])
                    if bundle.has_prerope:
                        ref = exact_top[l, h, r]
                        overlaps.append(len(kept & ref) / len(ref))
                    if needles is not None and not needles <= kept:
                        needle_ok = False
            rows.append(
                {
                    "policy_index": p_idx,
                    "policy": policy.kind,
                    "r": r,
                    "retained_per_head": len(plan.retained[0][0]),
                    "exact_leverage_overlap": float(np.mean(overlaps)) if overlaps else float("nan"),
                    "needle_retained": int(needle_ok) if needles is not None else "",
                    "score_q10": q10,
                    "score_q50": q50,
                    "score_q90": q90,
                }
            )
    return rows
