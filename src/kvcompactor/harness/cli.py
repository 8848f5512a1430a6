"""Command-line front end.

Subcommands: synth, score, evict, apply, calib fit, calib plan,
verify thm1, verify thm2, bench, sweep. Every argument comes from the
command line; no environment variable is read.

Exit codes: 0 success, 2 input error, 3 for verification runs (their
reports are data, not assertions, so the code flags "report emitted"
regardless of the observed pass rate).
"""

import argparse
import sys
from dataclasses import replace
from functools import partial

from .. import calibrate
from ..errors import CompactorError, _check_field
from ..evict import EvictionPolicy, _each_head, compress_bundle, head_scores
from ..kvstore import _read_json, apply_plan, load_bundle, load_plan, save_bundle, save_plan
from . import report
from .bench import bench_scaling
from .sweep import sweep_policies
from .synth import SYNTH_KINDS, SynthProfile, planted_needles, synth_bundle
from .verify import sample_size, verify_spectral, verify_thm2

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REPORT = 3


def _ints(text: str):
    return [int(x) for x in text.split(",") if x != ""]


def _floats(text: str):
    return [float(x) for x in text.split(",") if x != ""]


def _load_policy(path) -> EvictionPolicy:
    return _read_json(path, "policy", EvictionPolicy.from_json_dict)


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
        policy = replace(policy, retention=args.retention)
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
    policies = [_load_policy(p) for p in args.policies.split(",") if p]
    rows = sweep_policies(bundle, policies, args.rs, needle_indices=args.needles)
    report.write_csv(args.out, rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kvc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic KVT1 bundle")
    p.add_argument("--profile", choices=SYNTH_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rank", type=int, default=0)
    p.add_argument("--needle-count", type=int, default=1)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("score", help="per-token scores for a bundle under a policy")
    p.add_argument("--bundle", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("evict", help="compute a retention plan for a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--retention", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evict)

    p = sub.add_parser("apply", help="apply a retention plan to a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_apply)

    calib = sub.add_parser("calib", help="calibration curve fitting and inversion")
    calib_sub = calib.add_subparsers(dest="calib_command", required=True)
    p = calib_sub.add_parser("fit", help="fit the quality curve to training triples")
    p.add_argument("--triples", required=True)
    p.add_argument("--under-penalty", type=float, default=4.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calib_fit)
    p = calib_sub.add_parser("plan", help="invert the curve at a quality budget")
    p.add_argument("--model", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--nll", type=float)
    source.add_argument("--queries")
    p.add_argument("--tau", type=float, default=0.95)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_calib_plan)

    verify = sub.add_parser("verify", help="empirical bound verification (exit code 3)")
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    p = verify_sub.add_parser("thm1", help="spectral sandwich under leverage sampling")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=50)
    size = p.add_mutually_exclusive_group()
    size.add_argument("--k", type=int, help="sample size; one run in place of one per --c-values entry")
    size.add_argument("--c-values", type=_floats, default=[1.0, 2.0, 4.0, 8.0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify_thm1)
    p = verify_sub.add_parser("thm2", help="approximate-leverage sandwich")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--k", type=int, default=64)
    p.add_argument("--kappa", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--target-epsilon", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify_thm2)

    p = sub.add_parser("bench", help="scoring+selection wall-clock scaling")
    p.add_argument("--policy", required=True)
    p.add_argument("--ns", type=_ints, required=True)
    p.add_argument("--repeats", type=int, default=9)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="policy comparison sweep on a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--policies", required=True, help="comma-separated policy JSON paths")
    p.add_argument("--rs", type=_floats, required=True)
    p.add_argument("--needles", type=_ints, help="comma-separated planted token positions (fills needle_retained)")
    p.add_argument("--out", required=True)
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
