"""The benchmark's workloads at their smoke shapes, pinned to recorded outputs.

Bundle 0 of a seed-0 benchmark run of each workload goes through
compress_bundle -> save_plan -> load_plan -> apply_plan -> save_bundle, and
the sha256 of its plan's indices and of its compacted file must equal the
ones in golden_outputs.json. A change that moves outputs on purpose
re-records that file in the same commit, and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from kvcompactor import EvictionPolicy, apply_plan, compress_bundle, load_bundle, load_plan, save_bundle, save_plan
from kvcompactor.harness.synth import SynthProfile, synth_bundle

GOLDEN = Path(__file__).with_name("golden_outputs.json")
# compact_long's requests take r from a calibration model; the pin uses one fixed rate
FIXED_R = {"compact_long": 0.7}


def _import_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _import_workloads()


def _made_with() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _outputs(name: str, tmp: Path) -> dict:
    """Retention, digests and per-head kept-token bitmaps (hex) of one workload's bundle 0."""
    wl = workloads.get(name, smoke=True)
    r = wl.retention or FIXED_R[name]
    profile = SynthProfile(N=wl.seq_len, d=wl.head_dim, seed=workloads.bundle_seed(0, 0), **wl.profile)
    src, plan_path, out = tmp / f"{name}.kvt", tmp / f"{name}.plan.json", tmp / f"{name}.out.kvt"
    save_bundle(synth_bundle(profile, wl.n_layers, wl.n_kv_heads), src)
    bundle = load_bundle(src)
    save_plan(compress_bundle(bundle, EvictionPolicy.from_json_dict({**wl.policy, "retention": r})), plan_path)
    plan = load_plan(plan_path)
    save_bundle(apply_plan(bundle, plan), out)
    heads = [[np.asarray(idx, dtype="<i8") for idx in layer] for layer in plan.retained]
    bitmaps = [[np.packbits(np.isin(np.arange(wl.seq_len), idx)).tobytes().hex() for idx in layer] for layer in heads]
    return {
        "retention": r,
        "plan_sha256": hashlib.sha256(b"".join(idx.tobytes() for layer in heads for idx in layer)).hexdigest(),
        "file_sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
        "kept": bitmaps,
    }


def _plan_diff(want: dict, got: dict):
    """(layer, head)s whose kept sets differ, and how many golden tokens they no longer keep."""
    heads, swapped = [], 0
    for l, (want_layer, got_layer) in enumerate(zip(want["kept"], got["kept"])):
        for h, (a, b) in enumerate(zip(want_layer, got_layer)):
            if a != b:
                was, now = (np.unpackbits(np.frombuffer(bytes.fromhex(x), dtype=np.uint8)) for x in (a, b))
                heads.append((l, h))
                swapped += int(np.count_nonzero(was > now))
    return heads, swapped


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_match_golden(name, tmp_path):
    doc = json.loads(GOLDEN.read_text())
    want, got = doc["workloads"][name], _outputs(name, tmp_path)
    versions = f"golden made with {doc['made_with']}, this run with {_made_with()}"
    assert got["retention"] == want["retention"]
    heads, swapped = _plan_diff(want, got)
    assert got["plan_sha256"] == want["plan_sha256"], (
        f"{name}: plan differs at (layer, head)s {heads}, {swapped} token(s) swapped; {versions}"
    )
    assert got["file_sha256"] == want["file_sha256"], f"{name}: compacted file differs, plan does not; {versions}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"made_with": _made_with(), "workloads": {n: _outputs(n, Path(tmp)) for n in sorted(workloads.WORKLOADS)}}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
