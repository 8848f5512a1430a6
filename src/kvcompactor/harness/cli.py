"""Command-line front end.

Subcommands: synth, score, evict, apply, calib fit, calib plan,
verify thm1, verify thm2, bench, sweep. Every flag is mirrored by an
environment variable named KVC_<FLAG> (dashes become underscores), with
command-line values taking precedence.

Exit codes: 0 success, 2 input error, 3 for verification runs (their
reports are data, not assertions, so the code flags "report emitted"
regardless of the observed pass rate).
"""

import argparse
import os
import sys
from dataclasses import replace
from functools import partial

from .. import calibrate
from ..errors import CompactorError, FormatError, ParameterError, _check_field
from ..evict import EvictionPolicy, _each_head, compress_bundle, head_scores
from ..kvstore import _read_json, apply_plan, load_bundle, load_plan, save_bundle, save_plan
from . import report
from .bench import bench_scaling
from .sweep import sweep_policies
from .synth import SynthProfile, planted_needles, synth_bundle
from .verify import sample_size, verify_spectral, verify_thm2

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REPORT = 3


def _env(flag: str, fallback=None):
    return os.environ.get("KVC_" + flag.upper().replace("-", "_"), fallback)


def _add(parser, flag, **kwargs):
    """parser.add_argument with the KVC_* environment mirror as default."""
    env_value = _env(flag)
    if env_value is not None:
        kwargs["default"] = env_value
        kwargs.pop("required", None)
    parser.add_argument("--" + flag, **kwargs)


def _ints(text: str):
    return [int(x) for x in str(text).split(",") if x != ""]


def _floats(text: str):
    return [float(x) for x in str(text).split(",") if x != ""]


def _load_policy(path) -> EvictionPolicy:
    doc = _read_json(path)
    try:
        return EvictionPolicy.from_json_dict(doc)
    except KeyError as exc:
        raise FormatError(f"{path}: missing policy key {exc}") from exc
    except (TypeError, ParameterError) as exc:
        raise FormatError(f"{path}: malformed policy ({exc})") from exc


def _cmd_synth(args):
    profile = SynthProfile(
        kind=args.profile,
        N=args.n,
        d=args.d,
        rank=args.rank,
        needle_count=args.needle_count,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    bundle = synth_bundle(profile, n_layers=args.layers, n_kv_heads=args.heads)
    save_bundle(bundle, args.out)
    needles = planted_needles(profile)
    if needles.size:
        print(f"planted needles at {needles.tolist()}")
    print(f"wrote {args.out}: layers={bundle.n_layers} heads={bundle.n_kv_heads} N={bundle.seq_len} d={bundle.head_dim}")
    return EXIT_OK


def _cmd_score(args):
    bundle = load_bundle(args.bundle)
    policy = _load_policy(args.policy)
    scores = _each_head(bundle, partial(head_scores, policy))
    report.write_head_scores(args.out, scores)
    print(f"wrote {args.out}: {int(bundle.seq_lens.sum())} scores")
    return EXIT_OK


def _cmd_evict(args):
    bundle = load_bundle(args.bundle)
    policy = _load_policy(args.policy)
    if args.retention is not None:
        policy = replace(policy, retention=float(args.retention))
    plan = compress_bundle(bundle, policy)
    save_plan(plan, args.out)
    kept = sum(len(head) for layer in plan.retained for head in layer)
    print(f"wrote {args.out}: retained {kept} of {int(bundle.seq_lens.sum())} tokens")
    return EXIT_OK


def _cmd_apply(args):
    bundle = load_bundle(args.bundle)
    plan = load_plan(args.plan)
    compacted = apply_plan(bundle, plan)
    save_bundle(compacted, args.out)
    print(f"wrote {args.out}: seq_len {bundle.seq_len} -> {compacted.seq_len}")
    return EXIT_OK


def _cmd_calib_fit(args):
    triples = calibrate.load_triples(args.triples)
    model = calibrate.fit_calibration(triples, under_penalty=args.under_penalty)
    calibrate.save_model(model, args.out)
    print(
        f"wrote {args.out}: alpha={model.alpha:.6g} beta={model.beta:.6g} "
        f"rmse={model.fit_rmse:.3g} n={model.n_points}"
    )
    return EXIT_OK


def _cmd_calib_plan(args):
    _check_field("tau", args.tau, "real", "(0, 1]")  # before any row is read: no rows means no per-row check
    model = calibrate.load_model(args.model)
    if args.queries is not None:
        if args.out is None:
            raise CompactorError("--queries needs --out for the result CSV")
        nlls = calibrate._read_nlls(args.queries)
        rows = [{"nll_c": nll, "r_star": calibrate.invert_retention(nll, args.tau, model)} for nll in nlls]
        report.write_csv(args.out, rows, ["nll_c", "r_star"])
        print(f"wrote {args.out}: {len(rows)} retention rates")
        return EXIT_OK
    if args.nll is None:
        raise CompactorError("need --nll or --queries")
    r_star = calibrate.invert_retention(args.nll, args.tau, model)
    print(f"{r_star:.12g}")
    return EXIT_OK


def _cmd_verify_thm1(args):
    # an explicit k does not depend on c: one run, written with c blank
    if args.k is not None:
        runs = [(None, args.k)]
    else:
        runs = [(c, sample_size(args.d, args.epsilon, args.delta, c)) for c in args.c_values]
    rows = []
    for c, k in runs:
        rec = verify_spectral(args.n, args.d, k, args.trials, args.epsilon, args.delta, args.seed)
        rec["c"] = c
        rows.append(rec)
        print(("" if c is None else f"c={c}: ") + f"k={k} success_rate={rec['success_rate']:.3f}")
    report.write_csv(
        args.out,
        rows,
        ["c", "n", "d", "k", "epsilon", "delta", "trials", "successes", "success_rate", "worst_margin", "seed"],
    )
    print(f"wrote {args.out}")
    return EXIT_REPORT


def _cmd_verify_thm2(args):
    rec = verify_thm2(
        args.n, args.d, args.k, args.trials, args.kappa, seed=args.seed, target_epsilon=args.target_epsilon
    )
    rows = [
        {
            "trial": t,
            "n": rec["n"],
            "d": rec["d"],
            "k": rec["k"],
            "kappa": rec["kappa"],
            "tightest_epsilon": eps,
            "seed": rec["seed"],
        }
        for t, eps in enumerate(rec["epsilons"])
    ]
    report.write_csv(args.out, rows, ["trial", "n", "d", "k", "kappa", "tightest_epsilon", "seed"])
    frac = rec["fraction_within_target"]
    print(
        f"max_epsilon={rec['max_epsilon']:.4f} mean_epsilon={rec['mean_epsilon']:.4f}"
        + (f" fraction_within_target={frac:.3f}" if frac is not None else "")
    )
    print(f"wrote {args.out}")
    return EXIT_REPORT


def _cmd_bench(args):
    policy = _load_policy(args.policy)
    result = bench_scaling(policy, args.ns, repeats=args.repeats, warmup=args.warmup, d=args.d, seed=args.seed)
    print(f"loglog_slope={result['loglog_slope']:.3f}")
    report.write_csv(args.out, result["rows"], ["n", "policy", "median_s", "repeats", "loglog_slope"])
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_sweep(args):
    bundle = load_bundle(args.bundle)
    policies = [_load_policy(p) for p in str(args.policies).split(",") if p]
    rows = sweep_policies(bundle, policies, args.rs, needle_indices=args.needles)
    report.write_csv(args.out, rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kvc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic KVT1 bundle")
    _add(p, "profile", choices=["gaussian_iid", "low_rank_plus_noise", "needle", "clustered"], required=True)
    _add(p, "n", type=int, required=True)
    _add(p, "d", type=int, required=True)
    _add(p, "rank", type=int, default=0)
    _add(p, "needle-count", type=int, default=1, dest="needle_count")
    _add(p, "noise-sigma", type=float, default=0.0, dest="noise_sigma")
    _add(p, "layers", type=int, default=1)
    _add(p, "heads", type=int, default=1)
    _add(p, "seed", type=int, default=0)
    _add(p, "out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("score", help="per-token scores for a bundle under a policy")
    _add(p, "bundle", required=True)
    _add(p, "policy", required=True)
    _add(p, "out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("evict", help="compute a retention plan for a bundle")
    _add(p, "bundle", required=True)
    _add(p, "policy", required=True)
    _add(p, "retention", type=float, default=None)
    _add(p, "out", required=True)
    p.set_defaults(func=_cmd_evict)

    p = sub.add_parser("apply", help="apply a retention plan to a bundle")
    _add(p, "bundle", required=True)
    _add(p, "plan", required=True)
    _add(p, "out", required=True)
    p.set_defaults(func=_cmd_apply)

    calib = sub.add_parser("calib", help="calibration curve fitting and inversion")
    calib_sub = calib.add_subparsers(dest="calib_command", required=True)
    p = calib_sub.add_parser("fit", help="fit the quality curve to training triples")
    _add(p, "triples", required=True)
    _add(p, "under-penalty", type=float, default=4.0, dest="under_penalty")
    _add(p, "out", required=True)
    p.set_defaults(func=_cmd_calib_fit)
    p = calib_sub.add_parser("plan", help="invert the curve at a quality budget")
    _add(p, "model", required=True)
    _add(p, "nll", type=float, default=None)
    _add(p, "tau", type=float, default=0.95)
    _add(p, "queries", default=None)
    _add(p, "out", default=None)
    p.set_defaults(func=_cmd_calib_plan)

    verify = sub.add_parser("verify", help="empirical bound verification (exit code 3)")
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    p = verify_sub.add_parser("thm1", help="spectral sandwich under leverage sampling")
    _add(p, "n", type=int, default=2000)
    _add(p, "d", type=int, default=16)
    _add(p, "epsilon", type=float, default=0.5)
    _add(p, "delta", type=float, default=0.1)
    _add(p, "trials", type=int, default=50)
    _add(p, "k", type=int, default=None, help="sample size; one run in place of one per --c-values entry")
    _add(p, "c-values", type=_floats, default=[1.0, 2.0, 4.0, 8.0], dest="c_values")
    _add(p, "seed", type=int, default=0)
    _add(p, "out", required=True)
    p.set_defaults(func=_cmd_verify_thm1)
    p = verify_sub.add_parser("thm2", help="approximate-leverage sandwich")
    _add(p, "n", type=int, default=1024)
    _add(p, "d", type=int, default=64)
    _add(p, "k", type=int, default=64)
    _add(p, "kappa", type=float, default=2.0)
    _add(p, "trials", type=int, default=100)
    _add(p, "target-epsilon", type=float, default=None, dest="target_epsilon")
    _add(p, "seed", type=int, default=0)
    _add(p, "out", required=True)
    p.set_defaults(func=_cmd_verify_thm2)

    p = sub.add_parser("bench", help="scoring+selection wall-clock scaling")
    _add(p, "policy", required=True)
    _add(p, "ns", type=_ints, required=True)
    _add(p, "repeats", type=int, default=9)
    _add(p, "warmup", type=int, default=2)
    _add(p, "d", type=int, default=64)
    _add(p, "seed", type=int, default=0)
    _add(p, "out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="policy comparison sweep on a bundle")
    _add(p, "bundle", required=True)
    _add(p, "policies", required=True, help="comma-separated policy JSON paths")
    _add(p, "rs", type=_floats, required=True)
    _add(p, "needles", type=_ints, default=None, help="comma-separated planted token positions (fills needle_retained)")
    _add(p, "out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CompactorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
