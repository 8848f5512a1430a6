"""Property tests of the two readers on the request path, load_bundle and load_plan, on mutated files.

Each mutated file either loads to a value that saves back to a fixed point, or raises a typed error whose
message starts with the file's path; `kvc apply` on it exits 0 or 2 and never raises.
"""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcompactor import KVBundle, RetentionPlan, load_bundle, load_plan, save_bundle, save_plan
from kvcompactor.errors import CompactorError, DataError, FormatError
from kvcompactor.harness.cli import main

_HEADER_BYTES = 21
_RNG = np.random.default_rng(0)
# 2 layers x 2 heads of 3 tokens, d = 2, with all four tensors
_BUNDLE = KVBundle(*(_RNG.standard_normal((2, 2, 3, 2)).astype(np.float32) for _ in range(4)))
_PLAN = RetentionPlan(((((0, 2), (1,)), ((0, 1, 2), (2,)))), 0.5, "h2o", seed=7, metadata={"k": [1, 2]})


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding the valid bundle and plan, and their bytes."""
    root = tmp_path_factory.mktemp("readers")
    save_bundle(_BUNDLE, root / "valid.kvt")
    save_plan(_PLAN, root / "valid.json")
    return root, (root / "valid.kvt").read_bytes(), (root / "valid.json").read_text(encoding="utf-8")


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
    st.sampled_from([2**63, -(2**63) - 1, 2**64, 10**30]).map(str),
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
