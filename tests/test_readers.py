"""Property tests of every file reader on mutated files: bundles, plans, models, triple and query CSVs, policies.

Each mutated file either loads (a bundle, plan or model to a value that saves back to a fixed point), or raises
a typed error whose message starts with the file's path; the `kvc` command that reads it exits 0 or 2 and
never raises.
"""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcompactor import (
    AttnScoreConfig,
    CalibrationModel,
    EvictionPolicy,
    KVBundle,
    RetentionPlan,
    SketchSpec,
    calib_value,
    calibrate,
    load_bundle,
    load_plan,
    save_bundle,
    save_plan,
)
from kvcompactor.errors import CompactorError, DataError, FormatError
from kvcompactor.harness import cli
from kvcompactor.harness.cli import main

_HEADER_BYTES = 21
_RNG = np.random.default_rng(0)
# 2 layers x 2 heads of 3 tokens, d = 2, with all four tensors
_BUNDLE = KVBundle(*(_RNG.standard_normal((2, 2, 3, 2)).astype(np.float32) for _ in range(4)))
_PLAN = RetentionPlan(((((0, 2), (1,)), ((0, 1, 2), (2,)))), 0.5, "h2o", seed=7, metadata={"k": [1, 2]})
_MODEL = CalibrationModel(0.2, 1.0, fit_rmse=0.01, n_points=6)
_TRIPLES = "r,nll_c,y\n" + "".join(
    f"{r},{nll},{calib_value(r, nll, _MODEL)!r}\n" for r in (0.2, 0.5, 0.8) for nll in (1.0, 2.0)
)
_QUERIES = "nll_c,ctx\n0.5,a\n2.0,b\n"
_POLICY = EvictionPolicy(
    "compactor", 0.5, lam=0.3, sketch=SketchSpec("gaussian", 2), attn=AttnScoreConfig(chunk_size=2, pool_window=3)
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding the valid bundle and plan, and their bytes."""
    root = tmp_path_factory.mktemp("readers")
    save_bundle(_BUNDLE, root / "valid.kvt")
    save_plan(_PLAN, root / "valid.json")
    return root, (root / "valid.kvt").read_bytes(), (root / "valid.json").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def calib_files(files):
    """The directory of `files`, now also holding a valid model, triples CSV, queries CSV and policy."""
    root = files[0]
    calibrate.save_model(_MODEL, root / "model.json")
    (root / "triples.csv").write_text(_TRIPLES, encoding="utf-8")
    (root / "queries.csv").write_text(_QUERIES, encoding="utf-8")
    (root / "policy.json").write_text(json.dumps(_POLICY.to_json_dict()), encoding="utf-8")
    return root


def _apply(bundle, plan, out):
    return main(["apply", "--bundle", str(bundle), "--plan", str(plan), "--out", str(out)])


@st.composite
def _mutated_bundle(draw, valid: bytes):
    """The valid file with 1-4 bytes changed, mostly in the header, and some files truncated."""
    data = bytearray(valid)
    header, anywhere = st.integers(0, _HEADER_BYTES - 1), st.integers(0, len(data) - 1)
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.one_of(header, header, anywhere))] = draw(st.integers(0, 255))
    cut = draw(st.one_of(st.none(), st.none(), st.integers(0, len(data) - 1)))
    return bytes(data if cut is None else data[:cut])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# raw JSON text for a value: any drawn value (NaN and Infinity tokens included), an int beyond int64,
# or arrays nested from well inside to far past the recursion limit
_DEPTHS = st.integers(1, 64) | st.integers(sys.getrecursionlimit() - 200, sys.getrecursionlimit() + 100)
_VALUE_TEXT = st.one_of(
    _JSON.map(lambda v: json.dumps(v, allow_nan=True)),
    st.sampled_from([2**63, -(2**63) - 1, 2**64, 2**64 + 1, 10**30]).map(str),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "[NaN]", "[[0, NaN]]"]),
    st.one_of(_DEPTHS, st.just(100_000)).map(lambda depth: "[" * depth + "]" * depth),
)


@st.composite
def _mutated_plan(draw, valid: str):
    """The valid plan's JSON with one field, or one index list, replaced by drawn JSON text, or a key deleted."""
    doc = json.loads(valid)
    texts = {key: json.dumps(value) for key, value in doc.items()}
    key = draw(st.sampled_from(sorted(texts)))
    if draw(st.integers(0, 5)) == 0:
        del texts[key]
    elif key == "layers" and draw(st.booleans()):  # one head's index list
        layers = doc["layers"]
        at = (draw(st.integers(0, len(layers) - 1)), draw(st.integers(0, len(layers[0]) - 1)))
        value = draw(_VALUE_TEXT)
        heads = [
            "[" + ",".join(value if (l, h) == at else json.dumps(head) for h, head in enumerate(layer)) + "]"
            for l, layer in enumerate(layers)
        ]
        texts[key] = "[" + ",".join(heads) + "]"
    else:
        value = draw(_VALUE_TEXT)
        # a metadata value has to sit in an object to get past the mapping check
        texts[key] = '{"a": ' + value + "}" if key == "metadata" and draw(st.booleans()) else value
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in texts.items()) + "}"


_HOLE = "\x00hole"


def _key_paths(doc, prefix=()):
    """The path of every key in a JSON object, the keys of nested objects included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _parent(doc, key_path):
    """The object in `doc` that holds the last key of `key_path`."""
    for key in key_path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def _mutated_json(draw, valid: str):
    """The valid document with the value at one key path, nested or not, deleted or replaced by drawn JSON text."""
    doc = json.loads(valid)
    path = draw(st.sampled_from(sorted(_key_paths(doc))))
    parent = _parent(doc, path)
    if draw(st.integers(0, 5)) == 0:
        del parent[path[-1]]
        return json.dumps(doc)
    parent[path[-1]] = _HOLE
    return json.dumps(doc).replace(json.dumps(_HOLE), draw(_VALUE_TEXT))


# bytes that break a text file: NUL, stray quotes, bytes that are not UTF-8, separators, numbers out of range,
# an unclosed bracket, and a field longer than csv's 131072-character limit
_FRAGMENTS = st.sampled_from(
    [b"\x00", b'"', b'""', b"\xff", b"\xc3", b",", b"\n", b"\r", b" ", b"-", b"e9", b"nan", b"1e400", b"[", b"{",
     b"1" * 140_000]
)


@st.composite
def _mutated_text(draw, valid: bytes):
    """The valid file with 1-3 drawn fragments written over or into it, and a third of the files truncated."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        at, fragment = draw(st.integers(0, len(data))), draw(_FRAGMENTS)
        data[at : at + draw(st.integers(0, len(fragment)))] = fragment
    cut = draw(st.one_of(st.none(), st.none(), st.integers(0, len(data))))
    return bytes(data if cut is None else data[:cut])


def _mutated_file(draw, root, name: str) -> bytes:
    """A JSON file mutated as a document two times in three, else as bytes; a CSV file mutated as bytes."""
    valid = (root / name).read_bytes()
    if name.endswith(".json") and draw(st.integers(0, 2)):
        return draw(_mutated_json(valid.decode("utf-8"))).encode("utf-8")
    return draw(_mutated_text(valid))


def _loads_or_names(read, path) -> bool:
    """True if read(path) returns; False if it raises a CompactorError whose message starts with the path."""
    try:
        read(path)
    except CompactorError as exc:
        assert str(exc).startswith(f"{path}: "), exc
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_bundle_loads_to_its_bytes_or_names_its_path(files, data):
    root, valid, _ = files
    raw = data.draw(_mutated_bundle(valid))
    path = root / "mutated.kvt"
    path.write_bytes(raw)
    try:
        bundle = load_bundle(path)
    except CompactorError as exc:
        assert str(exc).startswith(f"{path}: "), exc
        loaded = False
    else:
        save_bundle(bundle, root / "resaved.kvt")
        assert (root / "resaved.kvt").read_bytes() == raw
        loaded = True
    code = _apply(path, root / "valid.json", root / "out.kvt")
    assert code in (0, 2) and (loaded or code == 2)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_plan_loads_to_a_fixed_point_or_names_its_path(files, data):
    root, _, valid = files
    path = root / "mutated.json"
    path.write_text(data.draw(_mutated_plan(valid)), encoding="utf-8")
    try:
        plan = load_plan(path)
    except (FormatError, DataError) as exc:
        assert str(exc).startswith(f"{path}: "), exc
        loaded = False
    else:
        save_plan(plan, root / "once.json")
        save_plan(load_plan(root / "once.json"), root / "twice.json")
        assert (root / "twice.json").read_bytes() == (root / "once.json").read_bytes()
        loaded = True
    code = _apply(root / "valid.kvt", path, root / "out.kvt")
    assert code in (0, 2) and (loaded or code == 2)


def test_plan_metadata_nested_across_the_recursion_limit(files):
    # a depth the parser accepts but the metadata check cannot re-encode is a FormatError, not a RecursionError
    root, _, valid = files
    path = root / "deep.json"
    limit = sys.getrecursionlimit()
    for depth in range(limit - 100, limit + 10):
        path.write_text(valid.replace('{"k": [1, 2]}', '{"a": ' + "[" * depth + "]" * depth + "}"), encoding="utf-8")
        try:
            load_plan(path)
        except FormatError as exc:
            assert str(exc).startswith(f"{path}: "), exc
        assert _apply(root / "valid.kvt", path, root / "out.kvt") in (0, 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_model_loads_to_a_fixed_point_or_names_its_path(calib_files, data):
    root = calib_files
    path = root / "mutated_model.json"
    path.write_bytes(_mutated_file(data.draw, root, "model.json"))
    loaded = _loads_or_names(calibrate.load_model, path)
    if loaded:
        calibrate.save_model(calibrate.load_model(path), root / "once.json")
        calibrate.save_model(calibrate.load_model(root / "once.json"), root / "twice.json")
        assert (root / "twice.json").read_bytes() == (root / "once.json").read_bytes()
    code = main(["calib", "plan", "--model", str(path), "--nll", "2"])
    assert code in (0, 2) and (loaded or code == 2)


@pytest.mark.parametrize(
    "name, read, argv",
    [
        ("triples.csv", calibrate.load_triples, ["calib", "fit", "--triples", "{}", "--out", "{root}/m.json"]),
        (
            "queries.csv",
            calibrate._read_nlls,
            ["calib", "plan", "--model", "{root}/model.json", "--queries", "{}", "--out", "{root}/r.csv"],
        ),
    ],
    ids=["triples", "queries"],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_csv_loads_or_names_its_path(calib_files, name, read, argv, data):
    root = calib_files
    path = root / f"mutated_{name}"
    path.write_bytes(_mutated_file(data.draw, root, name))
    loaded = _loads_or_names(read, path)
    code = main([arg.format(path, root=root) for arg in argv])
    assert code in (0, 2) and (loaded or code == 2)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_mutated_policy_loads_or_names_its_path(calib_files, data):
    root = calib_files
    path = root / "mutated_policy.json"
    path.write_bytes(_mutated_file(data.draw, root, "policy.json"))
    loaded = _loads_or_names(cli._load_policy, path)
    for command in ("evict", "score"):
        code = main([command, "--bundle", str(root / "valid.kvt"), "--policy", str(path), "--out", str(root / "out")])
        assert code in (0, 2) and (loaded or code == 2)


@pytest.mark.parametrize("value", [2**64 + 1, 2**1100 + 1], ids=["2**64+1", "2**1100+1"])
def test_policy_ints_beyond_int64(calib_files, value):
    # each integer field of the policy in turn set to an odd int beyond int64, as a pool window may be
    root = calib_files
    path, valid = root / "wide_policy.json", (root / "policy.json").read_text(encoding="utf-8")
    for key_path in _key_paths(json.loads(valid)):
        doc = json.loads(valid)
        parent = _parent(doc, key_path)
        if type(parent[key_path[-1]]) is not int:
            continue
        parent[key_path[-1]] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("evict", "score"):
            code = main([command, "--bundle", str(root / "valid.kvt"), "--policy", str(path), "--out", str(root / "out")])
            assert code in (0, 2), key_path
