"""Benchmark workloads at smoke shapes, the README's sweep and synthesized bundles, pinned to recorded outputs.

Bundle 0 of a seed-0 benchmark run of each workload goes through
compress_bundle -> save_plan -> load_plan -> apply_plan -> save_bundle, and
the sha256 of its plan's indices and of its compacted file must equal the
ones in golden_outputs.json; so must the sha256 of the CSV that the README's
``kvc sweep`` example writes, and of the KVT1 file of a synthesized bundle of
each profile kind, at a shape of several row blocks, and the plan indices
of the needle bundle under h2o. The workload digests must also hold under
OpenBLAS's Haswell kernels (a subprocess with OPENBLAS_CORETYPE=Haswell).
The sweep CSV's score quantiles move with the GEMM kernel, so its other
columns are pinned on every kernel and the whole CSV per kernel, for this
machine's kernel and Haswell; made_with records the kernel. A change that
moves outputs on purpose re-records that file in the same commit, and says
why:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import ctypes
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

import kvcompactor
from kvcompactor import _pool
from kvcompactor import EvictionPolicy, apply_plan, compress_bundle, head_scores, load_bundle, load_plan, save_bundle, save_plan
from kvcompactor.harness import cli
from kvcompactor.harness.synth import SYNTH_KINDS, SynthProfile, synth_bundle

GOLDEN = Path(__file__).with_name("golden_outputs.json")
# compact_long's requests take r from a calibration model; the pin uses one fixed rate
FIXED_R = {"compact_long": 0.7}
# the policy file shown in the README
README_POLICY = {
    "kind": "compactor",
    "lambda": 0.3,
    "retention": 0.5,
    "sketch": {"kind": "gaussian", "k": 64, "seed": 0},
    "attn": {
        "chunk_size": 256,
        "pool_window": 7,
        "scale": None,
        "value_norm": True,
        "baseline_window": 32,
        "snap_keep_window": True,
    },
    "seed": 0,
}
# the pinned synthesized bundles: 2x3 heads of N=2500 rows, more than two row blocks and not a multiple of one
SYNTH_SHAPE = {"N": 2500, "d": 48, "seed": 11}
SYNTH_HEADS = (2, 3)
SYNTH_FIELDS = {
    "gaussian_iid": {},
    "low_rank_plus_noise": {"rank": 5, "noise_sigma": 0.2},
    "needle": {"needle_count": 3, "noise_sigma": 0.3},
    "clustered": {"noise_sigma": 0.3},
}


def _import_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _import_workloads()


def _blas_core() -> str:
    """The kernel set numpy's OpenBLAS picked at load (e.g. "SkylakeX"), or "unknown" without that symbol."""
    get = getattr(ctypes.CDLL(_multiarray_umath.__file__), "scipy_openblas_get_corename64_", None)
    if get is None:
        return "unknown"
    get.restype = ctypes.c_char_p
    return get().decode()


def _made_with() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}", "blas_core": _blas_core()}


def _outputs(name: str, tmp: Path):
    """Retention, digests and per-head kept-token bitmaps (hex) of one workload's bundle 0, and its bundle and policy."""
    wl = workloads.get(name, smoke=True)
    r = wl.retention or FIXED_R[name]
    profile = SynthProfile(N=wl.seq_len, d=wl.head_dim, seed=workloads.bundle_seed(0, 0), **wl.profile)
    policy = EvictionPolicy.from_json_dict({**wl.policy, "retention": r})
    src, plan_path, out = tmp / f"{name}.kvt", tmp / f"{name}.plan.json", tmp / f"{name}.out.kvt"
    save_bundle(synth_bundle(profile, wl.n_layers, wl.n_kv_heads), src)
    bundle = load_bundle(src)
    save_plan(compress_bundle(bundle, policy), plan_path)
    plan = load_plan(plan_path)
    save_bundle(apply_plan(bundle, plan), out)
    heads = [[np.asarray(idx, dtype="<i8") for idx in layer] for layer in plan.retained]
    bitmaps = [[np.packbits(np.isin(np.arange(wl.seq_len), idx)).tobytes().hex() for idx in layer] for layer in heads]
    doc = {
        "retention": r,
        "plan_sha256": hashlib.sha256(b"".join(idx.tobytes() for layer in heads for idx in layer)).hexdigest(),
        "file_sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
        "kept": bitmaps,
    }
    return doc, bundle, policy


def _readme_sweep(tmp: Path) -> dict:
    """sha256 of the README sweep CSV, whole ("csv_sha256") and without its score-quantile columns ("columns_sha256").

    The CSV is the seed-0 needle bundle (N=1000, d=64) under the README policy and its h2o twin, at r 0.1 and 0.5.
    """
    bundle, p1, p2, out = (str(tmp / name) for name in ("bundle.kvt", "p1.json", "p2.json", "sweep.csv"))
    Path(p1).write_text(json.dumps(README_POLICY))
    Path(p2).write_text(json.dumps({**README_POLICY, "kind": "h2o"}))
    assert cli.main(["synth", "--profile", "needle", "--n", "1000", "--d", "64", "--seed", "0", "--out", bundle]) == 0
    assert cli.main(["sweep", "--bundle", bundle, "--policies", f"{p1},{p2}", "--rs", "0.1,0.5", "--out", out]) == 0
    text = Path(out).read_bytes()
    rows = list(csv.reader(io.StringIO(text.decode(), newline="")))
    fixed = [i for i, name in enumerate(rows[0]) if not name.startswith("score_q")]
    columns = json.dumps([[row[i] for i in fixed] for row in rows]).encode()
    return {"columns_sha256": hashlib.sha256(columns).hexdigest(), "csv_sha256": hashlib.sha256(text).hexdigest()}


def _synth_sha256(kind: str, tmp: Path) -> str:
    """sha256 of the KVT1 file of the pinned synthesized bundle of one profile kind."""
    path = tmp / f"{kind}.kvt"
    save_bundle(synth_bundle(SynthProfile(kind=kind, **SYNTH_SHAPE, **SYNTH_FIELDS[kind]), *SYNTH_HEADS), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _h2o_plan_sha256() -> str:
    """sha256 of the h2o plan indices of the pinned needle bundle; each head spans six causal row blocks at 4 MiB."""
    bundle = synth_bundle(SynthProfile(kind="needle", **SYNTH_SHAPE, **SYNTH_FIELDS["needle"]), *SYNTH_HEADS)
    plan = compress_bundle(bundle, EvictionPolicy(kind="h2o", retention=0.25))
    heads = (np.asarray(idx, dtype="<i8").tobytes() for layer in plan.retained for idx in layer)
    return hashlib.sha256(b"".join(heads)).hexdigest()


def _kept(bitmap: str) -> np.ndarray:
    return np.unpackbits(np.frombuffer(bytes.fromhex(bitmap), dtype=np.uint8)).astype(bool)


def _plan_diff(want: dict, got: dict) -> dict:
    """{(layer, head): (golden kept mask, this run's kept mask)} of the heads whose kept sets differ (padded to bytes)."""
    return {
        (l, h): (_kept(a), _kept(b))
        for l, (want_layer, got_layer) in enumerate(zip(want["kept"], got["kept"]))
        for h, (a, b) in enumerate(zip(want_layer, got_layer))
        if a != b
    }


def _swap_gaps(scores: np.ndarray, was: np.ndarray, now: np.ndarray) -> str:
    """Each token whose kept bit flipped, and its score minus the k-th largest score of its head.

    A gap near 0 is a boundary swap (rounding moved two near-equal scores);
    a large one means the scores themselves changed.
    """
    kth = np.sort(scores)[-int(np.count_nonzero(now))]
    return ", ".join(
        f"{i} {'dropped' if was[i] else 'added'} {scores[i] - kth:+.3g}" for i in np.flatnonzero(was != now)
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_match_golden(name, tmp_path):
    doc = json.loads(GOLDEN.read_text())
    want, (got, bundle, policy) = doc["workloads"][name], _outputs(name, tmp_path)
    versions = f"golden made with {doc['made_with']}, this run with {_made_with()}"
    assert got["retention"] == want["retention"]
    if got["plan_sha256"] != want["plan_sha256"]:
        diff = _plan_diff(want, got)
        swapped = sum(int(np.count_nonzero(was & ~now)) for was, now in diff.values())
        gaps = "; ".join(
            f"{lh}: {_swap_gaps(head_scores(policy, bundle.head(*lh), *lh).scores, *masks)}" for lh, masks in diff.items()
        )
        pytest.fail(
            f"{name}: plan differs at (layer, head)s {list(diff)}, {swapped} token(s) swapped; "
            f"token, change, score minus the k-th score: {gaps}; {versions}"
        )
    assert got["file_sha256"] == want["file_sha256"], f"{name}: compacted file differs, plan does not; {versions}"


# prints, last, the kernel, each workload's (plan, file) digests and the README sweep's digests;
# argv: this directory, a scratch directory
_KERNEL_OUTPUTS = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_golden as g
docs = {n: g._outputs(n, Path(sys.argv[2]))[0] for n in sorted(g.workloads.WORKLOADS)}
digests = {n: [d["plan_sha256"], d["file_sha256"]] for n, d in docs.items()}
print(json.dumps({"blas_core": g._blas_core(), "digests": digests, "sweep": g._readme_sweep(Path(sys.argv[2]))}))
"""


def _under_haswell(tmp: Path) -> dict:
    """_KERNEL_OUTPUTS of a subprocess with OPENBLAS_CORETYPE=Haswell."""
    src = str(Path(kvcompactor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["OPENBLAS_CORETYPE"] = "Haswell"
    cmd = [sys.executable, "-c", _KERNEL_OUTPUTS, str(Path(__file__).parent), str(tmp)]
    run = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_outputs_match_golden_under_haswell(tmp_path):
    # plans and compacted files must not depend on the GEMM kernel OpenBLAS picks for this CPU
    got = _under_haswell(tmp_path)
    if got["blas_core"] != "Haswell":
        pytest.skip(f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS (kernel {got['blas_core']})")
    doc = json.loads(GOLDEN.read_text())
    want = {n: [w["plan_sha256"], w["file_sha256"]] for n, w in doc["workloads"].items()}
    assert got["digests"] == want, f"workload outputs differ under Haswell; golden made with {doc['made_with']}"
    sweep = doc["readme_sweep"]
    assert got["sweep"] == {**sweep, "csv_sha256": sweep["csv_sha256"]["Haswell"]}, "README sweep CSV differs under Haswell"


def test_readme_sweep_matches_golden(tmp_path):
    doc = json.loads(GOLDEN.read_text())
    want, got, core = doc["readme_sweep"], _readme_sweep(tmp_path), _blas_core()
    versions = f"golden made with {doc['made_with']}, this run with {_made_with()}"
    assert got["columns_sha256"] == want["columns_sha256"], f"README sweep CSV differs beyond its quantiles; {versions}"
    if core not in want["csv_sha256"]:
        kernels = ", ".join(want["csv_sha256"])
        pytest.skip(f"README sweep quantiles are pinned under the {kernels} kernels, not this run's {core} kernel")
    assert got["csv_sha256"] == want["csv_sha256"][core], f"README sweep quantiles differ under {core}; {versions}"


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_synth_matches_golden(kind, cores, tmp_path, monkeypatch):
    # the bytes must not depend on how many heads are drawn at once
    monkeypatch.setattr(_pool, "_cores", lambda: cores)
    doc = json.loads(GOLDEN.read_text())
    versions = f"golden made with {doc['made_with']}, this run with {_made_with()}"
    assert _synth_sha256(kind, tmp_path) == doc["synth_sha256"][kind], f"{kind}: synthesized bundle differs; {versions}"


@pytest.mark.parametrize("cores", [1, 2])
def test_h2o_plan_matches_golden(cores, monkeypatch):
    monkeypatch.setattr(_pool, "_cores", lambda: cores)
    doc = json.loads(GOLDEN.read_text())
    versions = f"golden made with {doc['made_with']}, this run with {_made_with()}"
    assert _h2o_plan_sha256() == doc["h2o_plan_sha256"], f"h2o plan of the pinned needle bundle differs; {versions}"


@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_kvc_synth_writes_the_pinned_file(kind, tmp_path):
    fields = {"rank": 0, "needle_count": 1, "noise_sigma": 0.0, **SYNTH_FIELDS[kind]}
    out = tmp_path / "cli.kvt"
    argv = ["synth", "--profile", kind, "--n", str(SYNTH_SHAPE["N"]), "--d", str(SYNTH_SHAPE["d"])]
    argv += ["--rank", str(fields["rank"]), "--needle-count", str(fields["needle_count"])]
    argv += ["--noise-sigma", str(fields["noise_sigma"]), "--seed", str(SYNTH_SHAPE["seed"])]
    argv += ["--layers", str(SYNTH_HEADS[0]), "--heads", str(SYNTH_HEADS[1]), "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == json.loads(GOLDEN.read_text())["synth_sha256"][kind]


def test_swap_gaps_name_each_flipped_token():
    scores = np.array([0.5, 0.1, 0.3 + 1e-7, 0.3, 0.05])
    was = np.array([True, False, False, True, False])
    now = np.array([True, False, True, False, False])
    assert _swap_gaps(scores, was, now) == "2 added +0, 3 dropped -1e-07"


if __name__ == "__main__":
    # the sweep CSV is recorded under this machine's kernel and, when OpenBLAS can switch to it, Haswell
    with tempfile.TemporaryDirectory() as tmp:
        sweep, haswell = _readme_sweep(Path(tmp)), _under_haswell(Path(tmp))
        by_core = {_blas_core(): sweep["csv_sha256"]}
        if haswell["blas_core"] == "Haswell":
            by_core["Haswell"] = haswell["sweep"]["csv_sha256"]
        doc = {
            "made_with": _made_with(),
            "workloads": {n: _outputs(n, Path(tmp))[0] for n in sorted(workloads.WORKLOADS)},
            "readme_sweep": {"columns_sha256": sweep["columns_sha256"], "csv_sha256": by_core},
            "synth_sha256": {kind: _synth_sha256(kind, Path(tmp)) for kind in SYNTH_KINDS},
            "h2o_plan_sha256": _h2o_plan_sha256(),
        }
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
