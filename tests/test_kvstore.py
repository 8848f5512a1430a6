import builtins
import copy
import errno
import json
import os
import pickle
import re
import stat
import struct
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcompactor import _pool, kvstore
from kvcompactor import AttnScoreConfig, EvictionPolicy, KVBundle, RetainedIndices, RetentionPlan, SketchSpec, apply_plan
from kvcompactor import approx_leverage, compress_bundle, load_bundle, load_plan, retained_count, save_bundle, save_plan
from kvcompactor.errors import DataError, FormatError, ParameterError, PlanMismatchError, TruncationError
from kvcompactor.harness import SynthProfile, synth_bundle
from kvcompactor.harness.cli import main

HEADER = struct.Struct("<4sIIIIB")


def make_bundle(rng, layers=1, heads=2, n=4, d=2, queries=True, prerope=True):
    shape = (layers, heads, n, d)
    return KVBundle(
        keys=rng.standard_normal(shape).astype(np.float32),
        values=rng.standard_normal(shape).astype(np.float32),
        keys_prerope=rng.standard_normal(shape).astype(np.float32) if prerope else None,
        queries=rng.standard_normal(shape).astype(np.float32) if queries else None,
    )


def raw_file(layers=1, heads=2, n=4, d=2, flags=0b11, magic=b"KVT1", payload=None):
    n_tensors = 2 + bool(flags & 1) + bool(flags & 2)
    if payload is None:
        payload = np.arange(layers * heads * n_tensors * n * d, dtype=np.float32)
    return HEADER.pack(magic, layers, heads, n, d, flags) + payload.tobytes()


class TestBundleFormat:
    def test_load_header_dims(self, tmp_path):
        path = tmp_path / "b.kvt"
        path.write_bytes(raw_file(layers=1, heads=2, n=4, d=2))
        b = load_bundle(path)
        assert (b.n_layers, b.n_kv_heads, b.seq_len, b.head_dim) == (1, 2, 4, 2)
        assert b.has_queries and b.has_prerope

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.kvt"
        path.write_bytes(raw_file(magic=b"XXXX"))
        with pytest.raises(FormatError):
            load_bundle(path)

    def test_payload_one_float_short(self, tmp_path):
        path = tmp_path / "b.kvt"
        path.write_bytes(raw_file()[:-4])
        with pytest.raises(TruncationError):
            load_bundle(path)

    def test_payload_extra_bytes(self, tmp_path):
        path = tmp_path / "b.kvt"
        path.write_bytes(raw_file() + b"\x00\x00\x00\x00")
        with pytest.raises(TruncationError):
            load_bundle(path)

    @pytest.mark.parametrize("stray", [1, 2, 3])
    def test_payload_stray_trailing_bytes(self, tmp_path, stray):
        path = tmp_path / "b.kvt"
        path.write_bytes(raw_file() + b"\x00" * stray)
        with pytest.raises(TruncationError):
            load_bundle(path)

    def test_huge_declared_payload_checked_before_allocation(self, tmp_path):
        # a bare header declaring 4 x 64 x 2**20 x 1024 float32 tensors (1 PiB)
        path = tmp_path / "b.kvt"
        path.write_bytes(HEADER.pack(b"KVT1", 4, 64, 2**20, 1024, 0b11))
        with pytest.raises(TruncationError):
            load_bundle(path)

    def test_nonfinite_payload(self, tmp_path):
        payload = np.arange(1 * 2 * 4 * 4 * 2, dtype=np.float32)
        payload[3] = np.nan
        path = tmp_path / "b.kvt"
        path.write_bytes(raw_file(payload=payload))
        with pytest.raises(DataError, match="b.kvt"):
            load_bundle(path)

    def test_zero_dim_header(self, tmp_path):
        path = tmp_path / "b.kvt"
        path.write_bytes(raw_file(n=0, payload=np.empty(0, dtype=np.float32)))
        with pytest.raises(FormatError):
            load_bundle(path)

    @pytest.mark.parametrize(
        "data, error, message",
        [
            (raw_file()[: HEADER.size - 1], TruncationError, "header truncated"),
            (raw_file(flags=0b111), FormatError, "unknown flag bits 0x07"),
        ],
        ids=["cut_in_header", "unknown_flag"],
    )
    def test_bad_header_is_typed_error(self, tmp_path, data, error, message):
        path = tmp_path / "b.kvt"
        path.write_bytes(data)
        with pytest.raises(error, match=f"b.kvt: {message}"):
            load_bundle(path)

    def test_round_trip_bit_exact(self, tmp_path):
        b = make_bundle(np.random.default_rng(0), layers=2, heads=3, n=5, d=4)
        p1, p2 = tmp_path / "a.kvt", tmp_path / "b.kvt"
        save_bundle(b, p1)
        loaded = load_bundle(p1)
        for l in range(2):
            for h in range(3):
                assert np.array_equal(loaded.keys[l][h], b.keys[l][h])
                assert np.array_equal(loaded.queries[l][h], b.queries[l][h])
        save_bundle(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_optional_tensors_round_trip(self, tmp_path):
        b = make_bundle(np.random.default_rng(1), queries=False, prerope=False)
        path = tmp_path / "b.kvt"
        save_bundle(b, path)
        loaded = load_bundle(path)
        assert not loaded.has_queries and not loaded.has_prerope

    def test_prerope_only_payload_slots(self, tmp_path):
        # three tensors per head: [keys_prerope, keys, values]
        payload = np.arange(1 * 1 * 3 * 2 * 2, dtype=np.float32)
        path = tmp_path / "b.kvt"
        path.write_bytes(raw_file(layers=1, heads=1, n=2, d=2, flags=0b10, payload=payload))
        b = load_bundle(path)
        assert b.has_prerope and not b.has_queries
        assert b.keys_prerope[0][0].ravel().tolist() == [0, 1, 2, 3]
        assert b.keys[0][0].ravel().tolist() == [4, 5, 6, 7]
        assert b.values[0][0].ravel().tolist() == [8, 9, 10, 11]

    @pytest.mark.parametrize("prerope, queries", [(False, False), (False, True), (True, False), (True, True)])
    def test_payload_slots_follow_layout(self, tmp_path, prerope, queries):
        # per head: [keys_prerope?, keys, values, queries?], two heads of 2x2
        names = ["keys_prerope"] * prerope + ["keys", "values"] + ["queries"] * queries
        payload = np.arange(2 * len(names) * 4, dtype=np.float32)
        path, again = tmp_path / "a.kvt", tmp_path / "b.kvt"
        path.write_bytes(raw_file(layers=1, heads=2, n=2, d=2, flags=queries | prerope << 1, payload=payload))
        b = load_bundle(path)
        assert (b.has_prerope, b.has_queries) == (prerope, queries)
        for h in range(2):
            for slot, name in enumerate(names):
                first = 4 * (h * len(names) + slot)
                assert getattr(b, name)[0][h].ravel().tolist() == list(range(first, first + 4))
        save_bundle(b, again)
        assert again.read_bytes() == path.read_bytes()
        save_bundle(load_bundle(again), path)
        assert path.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize(
        "shape",
        [(), (4,), (2, 4), (1, 2, 4), (1, 1, 1, 4, 2), (1, 1, 4, 0), (1, 1, 0, 2)],
        ids=["0d", "1d", "2d", "3d", "5d", "head_dim_0", "seq_len_0"],
    )
    def test_bad_shape_rejected(self, tmp_path, shape):
        mats = np.ones(shape, dtype=np.float32)
        with pytest.raises(ParameterError):
            KVBundle(keys=mats, values=mats)

    def test_grouped_queries_stacked_row_wise_rejected(self):
        # one (N, d) query matrix per KV head: a group's queries stacked into (2N, d) do not fit
        rng = np.random.default_rng(16)
        keys = rng.standard_normal((1, 1, 4, 3)).astype(np.float32)
        queries = rng.standard_normal((1, 1, 8, 3)).astype(np.float32)
        with pytest.raises(ParameterError, match=r"^queries\[0\]\[0\]: bad shape \(8, 3\)"):
            KVBundle(keys=keys, values=keys, queries=queries)

    def test_ragged_bundle_not_saveable(self, tmp_path):
        b = KVBundle(
            keys=[[np.ones((3, 2), np.float32), np.ones((2, 2), np.float32)]],
            values=[[np.ones((3, 2), np.float32), np.ones((2, 2), np.float32)]],
        )
        assert b.is_ragged
        with pytest.raises(FormatError):
            save_bundle(b, tmp_path / "b.kvt")

    def test_ragged_bundle_has_no_seq_len(self):
        mats = [[np.ones((3, 2), np.float32), np.ones((2, 2), np.float32)]]
        with pytest.raises(ParameterError, match="^bundle is ragged; use seq_lens$"):
            KVBundle(keys=mats, values=mats).seq_len

    def test_bundle_arrays_read_only(self):
        b = make_bundle(np.random.default_rng(2))
        with pytest.raises(ValueError):
            b.keys[0][0][0, 0] = 1.0

    def test_nonfinite_construction_rejected(self):
        bad = np.full((1, 1, 2, 2), np.inf, dtype=np.float32)
        with pytest.raises(DataError):
            KVBundle(keys=bad, values=bad)

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("source", ["constructed", "loaded"])
    def test_first_nonfinite_matrix_in_layout_order_named(self, monkeypatch, tmp_path, source, cores):
        monkeypatch.setattr(_pool, "_cores", lambda: cores)
        rng = np.random.default_rng(8)
        tensors = {name: rng.standard_normal((2, 2, 4, 3)).astype(np.float32) for name in ("keys_prerope", "keys", "values", "queries")}
        tensors["queries"][0, 0, 1, 2] = np.nan
        tensors["keys_prerope"][1, 1, 0, 0] = np.inf
        path = tmp_path / "b.kvt"
        path.write_bytes(raw_file(layers=2, n=4, d=3, payload=np.stack(list(tensors.values()), axis=2)))
        prefix = re.escape(f"{path}: ") if source == "loaded" else ""
        with pytest.raises(DataError, match=rf"^{prefix}keys_prerope\[1\]\[1\]: bundle contains non-finite values$"):
            KVBundle(**tensors) if source == "constructed" else load_bundle(path)

    @pytest.mark.parametrize("span", [16, 20, 1 << 20])
    def test_nonfinite_value_in_last_span_named(self, monkeypatch, tmp_path, span):
        # 48-byte matrices: three spans of 16 bytes, spans of 20, 20 and 8, or one span
        monkeypatch.setattr(kvstore, "_SPAN_BYTES", span)
        payload = np.arange(2 * 2 * 4 * 6 * 2, dtype=np.float32).reshape(2, 2, 4, 6, 2)
        payload[1, 0, 2, 5, 1] = np.nan
        path = tmp_path / "b.kvt"
        path.write_bytes(raw_file(layers=2, n=6, d=2, payload=payload))
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: values\[1\]\[0\]: bundle contains non-finite values$"):
            load_bundle(path)

    def test_loaded_spans_cover_the_payload_once(self, monkeypatch, tmp_path):
        # 48-byte matrices in spans of 20, 20 and 8 bytes: 5, 5 and 2 floats, each tested once
        monkeypatch.setattr(kvstore, "_SPAN_BYTES", 20)
        scans, real = [], kvstore._finite
        monkeypatch.setattr(kvstore, "_finite", lambda mat: scans.append(mat.size) or real(mat))
        b = make_bundle(np.random.default_rng(9), layers=2, heads=3, n=6, d=2)
        save_bundle(b, tmp_path / "b.kvt")
        scans.clear()
        loaded = load_bundle(tmp_path / "b.kvt")
        assert sorted(scans) == [2] * 24 + [5] * 48
        for name in ("keys_prerope", "keys", "values", "queries"):
            assert all(np.array_equal(getattr(loaded, name)[l][h], getattr(b, name)[l][h]) for l in range(2) for h in range(3))

    def test_structure_checked_before_finiteness(self):
        # every group's layer and head counts are checked before any matrix is scanned
        keys = np.full((2, 2, 4, 3), np.nan, dtype=np.float32)
        with pytest.raises(ParameterError, match=r"^queries: expected 2 layers of 2 heads$"):
            KVBundle(keys=keys, values=keys, queries=keys[:1])

    def test_shared_matrix_scanned_once(self, monkeypatch, tmp_path):
        # a synth bundle's pre-rope keys are its keys: 3 distinct matrices per head, where a loaded one has 4
        scans, real = [], kvstore._finite
        monkeypatch.setattr(kvstore, "_finite", lambda mat: scans.append(mat.shape) or real(mat))
        bundle = synth_bundle(SynthProfile(kind="gaussian_iid", N=8, d=4), n_layers=2, n_kv_heads=3)
        assert len(scans) == 3 * 2 * 3
        save_bundle(bundle, tmp_path / "b.kvt")
        scans.clear()
        load_bundle(tmp_path / "b.kvt")
        assert len(scans) == 4 * 2 * 3


    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_finite_check_matches_isfinite(self, data):
        shape = (data.draw(st.integers(1, 9)), data.draw(st.integers(1, 5)))
        mat = np.random.default_rng(data.draw(st.integers(0, 2**16))).standard_normal(shape).astype(np.float32)
        specials = [np.nan, np.inf, -np.inf, np.finfo(np.float32).max, -np.finfo(np.float32).max, -0.0]
        for value in data.draw(st.lists(st.sampled_from(specials), max_size=3)):
            mat[data.draw(st.integers(0, shape[0] - 1)), data.draw(st.integers(0, shape[1] - 1))] = value
        assert kvstore._finite(mat) == bool(np.isfinite(mat).all())


def test_array_holders_compare_by_identity():
    # a generated == would compare the arrays and raise; bundles, heads, scores and leverage compare and hash as objects
    profile = SynthProfile(kind="gaussian_iid", N=16, d=4, seed=0)
    a, b = synth_bundle(profile), synth_bundle(profile)
    la, lb = (approx_leverage(x.head(0, 0).keys, SketchSpec("none", 4)) for x in (a, b))
    for x, y in [(a, b), (a.head(0, 0), b.head(0, 0)), (la.scores, lb.scores), (la, lb)]:
        assert x == x and x != y and x not in [y] and len({x, y}) == 2

class _FailingWrite:
    """A file whose write number `fail_at` raises OSError (write 1 is save_bundle's zeroed header)."""

    def __init__(self, fh, fail_at):
        self.fh, self.fail_at, self.writes = fh, fail_at, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, "no space left on device")
        return self.fh.write(data)


class TestBundleFileIO:
    def test_small_save_over_larger_file_is_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        path, fresh = tmp_path / "out.kvt", tmp_path / "fresh.kvt"
        save_bundle(make_bundle(rng, layers=2, heads=3, n=50, d=4), path)
        small = make_bundle(rng, layers=1, heads=1, n=2, d=4, queries=False)
        save_bundle(small, path)
        save_bundle(small, fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert path.stat().st_size == HEADER.size + 3 * 2 * 4 * 4

    @pytest.mark.parametrize("old_n", [5, 50], ids=["same_shape", "larger"])
    def test_failed_save_leaves_a_rejected_file(self, tmp_path, monkeypatch, old_n):
        # same shape is the case a plain in-place rewrite would get wrong: old header, new and old payload
        rng = np.random.default_rng(11)
        path = tmp_path / "out.kvt"
        save_bundle(make_bundle(rng, layers=2, heads=2, n=old_n, d=3), path)
        monkeypatch.setattr(kvstore, "open", lambda *a, **k: _FailingWrite(builtins.open(*a, **k), 4), raising=False)
        with pytest.raises(OSError, match="no space"):
            save_bundle(make_bundle(rng, layers=2, heads=2, n=5, d=3), path)
        monkeypatch.undo()
        with pytest.raises(FormatError, match="bad magic"):
            load_bundle(path)

    def test_ragged_save_leaves_existing_file(self, tmp_path):
        path = tmp_path / "out.kvt"
        save_bundle(make_bundle(np.random.default_rng(12)), path)
        before = path.read_bytes()
        mats = [[np.ones((3, 2), np.float32), np.ones((2, 2), np.float32)]]
        ragged = KVBundle(keys=mats, values=mats)
        with pytest.raises(FormatError):
            save_bundle(ragged, path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("cores", [1, 2])
    def test_file_shrinking_during_read_is_truncation(self, tmp_path, monkeypatch, cores):
        # preadv sees the file end at byte `end`: head 0 is whole, head 1 comes up short, then reads return 0
        monkeypatch.setattr(_pool, "_cores", lambda: cores)
        path = tmp_path / "b.kvt"
        save_bundle(make_bundle(np.random.default_rng(13), layers=1, heads=2, n=6, d=2), path)
        head_bytes = 4 * 6 * 2 * 4
        end = HEADER.size + head_bytes + 20
        real = os.preadv

        def shrunk(fd, bufs, offset):
            return real(fd, [memoryview(bufs[0])[: max(0, end - offset)]], offset)

        monkeypatch.setattr(os, "preadv", shrunk)
        with pytest.raises(TruncationError, match=f"ends at byte {head_bytes + 20},"):
            load_bundle(path)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_short_reads_are_resumed(self, tmp_path, monkeypatch, cores):
        monkeypatch.setattr(_pool, "_cores", lambda: cores)
        b = make_bundle(np.random.default_rng(14), layers=2, heads=2, n=7, d=3)
        path = tmp_path / "b.kvt"
        save_bundle(b, path)
        real = os.preadv
        monkeypatch.setattr(os, "preadv", lambda fd, bufs, offset: real(fd, [memoryview(bufs[0])[:7]], offset))
        loaded = load_bundle(path)
        for name in ("keys_prerope", "keys", "values", "queries"):
            for l in range(2):
                for h in range(2):
                    assert np.array_equal(getattr(loaded, name)[l][h], getattr(b, name)[l][h])

    def test_save_through_symlink_keeps_link_and_mode(self, tmp_path):
        rng = np.random.default_rng(15)
        target, link, fresh = tmp_path / "target.kvt", tmp_path / "link.kvt", tmp_path / "fresh.kvt"
        save_bundle(make_bundle(rng, layers=2, heads=2, n=9), target)
        target.chmod(0o640)
        link.symlink_to(target)
        b = make_bundle(rng, heads=1, n=3)
        save_bundle(b, link)
        save_bundle(b, fresh)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()
        assert stat.S_IMODE(target.stat().st_mode) == 0o640


class TestRetentionPlan:
    def test_round_trip_equal(self, tmp_path):
        plan = RetentionPlan(
            retained=(((0, 2, 5),),),
            retention_target=0.3,
            policy_name="compactor",
            seed=7,
            metadata={"sketch": {"kind": "gaussian", "k": 64, "seed": 7}},
        )
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan

    def test_written_as_one_line_json(self, tmp_path):
        plan = RetentionPlan(
            retained=(((0, 2, 5), (1, 3, 4)),),
            retention_target=0.3,
            policy_name="compactor",
            seed=7,
            metadata={"sketch": {"kind": "gaussian", "k": 64, "seed": 7}, "scale": 0.1},
        )
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        doc = {
            "version": 1,
            "retention_target": 0.3,
            "policy_name": "compactor",
            "seed": 7,
            "layers": [[[0, 2, 5], [1, 3, 4]]],
            "metadata": {"sketch": {"kind": "gaussian", "k": 64, "seed": 7}, "scale": 0.1},
        }
        assert path.read_text(encoding="utf-8") == json.dumps(doc) + "\n"

    @pytest.mark.parametrize("target", [0.3, (0.25, 0.5)], ids=["scalar", "per_layer"])
    def test_bytes_match_list_encoding(self, tmp_path, target):
        # heads are formatted from their int64 arrays; the bytes are those of the document spelled out in lists
        policy = EvictionPolicy(kind="compactor", retention=target)
        plan = RetentionPlan(
            retained=(((0, 2, 5), (1, 3, 4)), ((7,), (2**40, 2**62))),
            retention_target=target,
            policy_name="compactor",
            seed=7,
            metadata={"policy": policy.to_json_dict(), "seq_lens": [[8, 8], [8, 8]]},
        )
        as_list = list(target) if isinstance(target, tuple) else target
        doc = {
            "version": 1,
            "retention_target": as_list,
            "policy_name": "compactor",
            "seed": 7,
            "layers": [[[0, 2, 5], [1, 3, 4]], [[7], [2**40, 2**62]]],
            "metadata": {"policy": {**policy.to_json_dict(), "retention": as_list}, "seq_lens": [[8, 8], [8, 8]]},
        }
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert path.read_bytes() == (json.dumps(doc) + "\n").encode()

    @pytest.mark.parametrize("metadata", [{"a": (1, 2)}, {1: "x"}], ids=["tuple_value", "int_key"])
    def test_metadata_stored_as_the_json_it_saves_as(self, tmp_path, metadata):
        plan = RetentionPlan(retained=[[[0, 1]]], retention_target=0.5, policy_name="x", metadata=metadata)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), np.float32("nan")], ids=["nan", "inf", "-inf", "f32_nan"]
    )
    def test_non_finite_metadata_rejected_at_construction(self, value):
        # such a plan once saved as the bare token NaN or Infinity, which strict JSON parsers reject
        with pytest.raises(ParameterError, match=r"^metadata must be a JSON object of JSON values \(Out of range"):
            RetentionPlan(retained=[[[0, 1]]], retention_target=0.5, policy_name="x", metadata={"a": [1.0, value]})

    def test_per_layer_targets_round_trip(self, tmp_path):
        plan = RetentionPlan(
            retained=(((0,),), ((1, 2),)),
            retention_target=(0.25, 0.5),
            policy_name="compactor",
        )
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan

    @pytest.mark.parametrize(
        "key, value",
        [
            ("policy_name", 5),
            ("seed", "x"),
            ("seed", True),
            ("seed", 1.5),
            ("metadata", [1, 2]),
            ("metadata", {"a": {1}}),
            ("metadata", {"a": np.arange(2)}),
        ],
        ids=["int_policy_name", "string_seed", "bool_seed", "float_seed", "list_metadata", "set_value", "array_value"],
    )
    def test_field_types_checked_at_construction(self, key, value):
        # each of these once built a plan that save_plan or load_plan then refused
        fields = {"retained": [[[0, 1]]], "retention_target": 0.5, "policy_name": "x", key: value}
        with pytest.raises(ParameterError, match=f"^{key} must be"):
            RetentionPlan(**fields)

    @pytest.mark.parametrize(
        "retained",
        [[5], [[5]], [["01"]], [{"0": [1]}], 5],
        ids=["int_layer", "int_head", "str_head", "dict_layer", "int"],
    )
    def test_nesting_checked_at_construction(self, retained):
        with pytest.raises(ParameterError, match="^layers must be a list of layers, each a list of per-head index"):
            RetentionPlan(retained=retained, retention_target=0.5, policy_name="x")

    def test_index_sequence_kinds_accepted(self, tmp_path):
        want = RetentionPlan(retained=(((0, 2), (1, 3)),), retention_target=0.5, policy_name="x")
        path = tmp_path / "plan.json"
        arrays = [(np.array([0, 2]), np.array([1, 3], np.int32))]
        for retained in ([[[0, 2], [1, 3]]], arrays, np.array([[[0, 2], [1, 3]]])):
            plan = RetentionPlan(retained=retained, retention_target=0.5, policy_name="x")
            save_plan(plan, path)
            assert plan == want and load_plan(path) == want

    @pytest.mark.parametrize(
        "field",
        [
            {"seed": np.int64(1)},
            {"lam": np.float32(0.3)},
            {"sketch": SketchSpec("gaussian", np.int64(4), 0)},
            {"attn": AttnScoreConfig(chunk_size=np.int64(16))},
            {"retention": (0.25, 0.5)},
        ],
        ids=["int64_seed", "float32_lambda", "int64_sketch_k", "int64_chunk_size", "per_layer_retention"],
    )
    def test_compressed_plan_round_trips(self, tmp_path, field):
        policy = EvictionPolicy(**{"kind": "compactor", "retention": 0.5, **field})
        plan = compress_bundle(make_bundle(np.random.default_rng(17), layers=2, heads=2, n=32, d=8), policy)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan

    def test_duplicate_index_rejected(self):
        with pytest.raises(DataError):
            RetentionPlan(retained=(((0, 0, 5),),), retention_target=0.3, policy_name="x")

    def test_unsorted_rejected(self):
        with pytest.raises(DataError):
            RetentionPlan(retained=(((2, 1),),), retention_target=0.3, policy_name="x")

    def test_empty_head_rejected(self):
        with pytest.raises(DataError):
            RetentionPlan(retained=(((),),), retention_target=0.3, policy_name="x")

    @pytest.mark.parametrize("retained", [(), ((),)], ids=["no_layers", "no_heads"])
    def test_no_heads_rejected(self, retained):
        with pytest.raises(DataError, match="at least one layer and one head"):
            RetentionPlan(retained=retained, retention_target=0.3, policy_name="x")

    def test_bad_target_rejected(self):
        with pytest.raises(DataError):
            RetentionPlan(retained=(((0,),),), retention_target=1.5, policy_name="x")

    def test_head_count_differs_across_layers(self):
        with pytest.raises(DataError):
            RetentionPlan(retained=(((0, 1), (0, 1)), ((0, 1),)), retention_target=0.5, policy_name="x")

    @pytest.mark.parametrize(
        "target", [True, float("nan"), float("inf"), (0.5, True)], ids=["bool", "nan", "inf", "bool_in_list"]
    )
    def test_non_numeric_target_rejected(self, target):
        with pytest.raises(DataError):
            RetentionPlan(retained=(((0,),), ((0,),)), retention_target=target, policy_name="x")

    def test_per_layer_target_count(self):
        for targets in ((0.5,), (0.5, 0.5, 0.5)):
            with pytest.raises(DataError):
                RetentionPlan(retained=(((0,),), ((0,),)), retention_target=targets, policy_name="x")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_plan(path)
        path.write_text('{"version": 1}')
        with pytest.raises(FormatError):
            load_plan(path)

    def test_non_integer_indices_rejected(self, tmp_path):
        with pytest.raises(DataError):
            RetentionPlan(retained=(((0, 1.5),),), retention_target=0.5, policy_name="x")
        path = tmp_path / "plan.json"
        path.write_text(
            '{"version": 1, "retention_target": 0.5, "policy_name": "x", "seed": null,'
            ' "layers": [[[0, 2.5]]]}'
        )
        with pytest.raises(DataError):
            load_plan(path)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.integers(-2, 12), st.just(2**63)), min_size=1, max_size=6))
    def test_index_check_matches_loop_reference(self, idx):
        # the per-element loop the vectorized check replaced, plus the int64 bound
        valid = idx[0] >= 0 and all(b > a for a, b in zip(idx, idx[1:])) and idx[-1] < 2**63
        if not valid:
            with pytest.raises(DataError):
                RetentionPlan(retained=((idx,),), retention_target=0.5, policy_name="x")
            return
        plan = RetentionPlan(retained=((idx,),), retention_target=0.5, policy_name="x")
        assert plan.retained == ((tuple(idx),),)
        assert all(type(v) is int for v in plan.retained[0][0])

    @pytest.mark.parametrize(
        "idx", [[0, 2, 5], [3, 1], [1, 1], [-1, 2], [4, -2], [], [2**62, 2**63 - 1]],
        ids=["valid", "unsorted", "duplicate", "negative", "negative_last", "empty", "large"],
    )
    def test_int64_array_checked_as_its_list(self, idx):
        # an int64 vector skips the per-element type pass, and must give the same indices or error as the list
        def result(head):
            try:
                return kvstore._index_head(head, "layer 0 head 0")
            except DataError as exc:
                return str(exc)

        got, want = result(np.array(idx, dtype=np.int64)), result(idx)
        assert got == want and type(got) is type(want)
        if isinstance(got, RetainedIndices):
            assert all(type(v) is int for v in got)

    def test_other_arrays_keep_the_type_pass(self):
        with pytest.raises(DataError, match="retained indices must be integers, got bool"):
            kvstore._index_head(np.array([True, False]), "w")
        assert kvstore._index_head(np.array([0, 3], np.uint64), "w") == (0, 3)
        with pytest.raises(DataError, match="indices must be strictly increasing, got 1 after 3"):
            kvstore._index_head(np.array([3, 1], np.uint64), "w")

    @staticmethod
    def plan_file(path, layers):
        path.write_text(
            '{"version": 1, "retention_target": 0.5, "policy_name": "x", "seed": null, "layers": ' + layers + "}"
        )
        return path

    def test_bool_index_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_plan(self.plan_file(tmp_path / "plan.json", "[[[true]]]"))
        with pytest.raises(DataError):
            RetentionPlan(retained=(((0, True),),), retention_target=0.5, policy_name="x")

    @pytest.mark.parametrize("layers", ["[5]", "[[5]]", '[["01"]]', '[{"0": [1]}]'])
    def test_layers_structure_is_format_error(self, tmp_path, layers):
        with pytest.raises(FormatError, match="plan.json: layers must be a list of layers"):
            load_plan(self.plan_file(tmp_path / "plan.json", layers))

    def test_index_error_names_the_file(self, tmp_path):
        with pytest.raises(DataError, match="plan.json: layer 0 head 0: indices must be strictly increasing"):
            load_plan(self.plan_file(tmp_path / "plan.json", "[[[2, 1]]]"))

    def test_index_beyond_int64(self, tmp_path, capsys):
        plan = self.plan_file(tmp_path / "plan.json", f"[[[0, {2**70}]]]")
        bundle = make_bundle(np.random.default_rng(8), heads=1, n=4)
        with pytest.raises((DataError, PlanMismatchError)):
            apply_plan(bundle, load_plan(plan))
        save_bundle(bundle, tmp_path / "b.kvt")
        code = main(["apply", "--bundle", str(tmp_path / "b.kvt"), "--plan", str(plan), "--out", str(tmp_path / "o.kvt")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("target", ["true", "[0.5]"])
    def test_bad_target_from_json(self, tmp_path, target):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"version": 1, "retention_target": ' + target + ', "policy_name": "x", "seed": null,'
            ' "layers": [[[0]], [[1]]]}'
        )
        with pytest.raises(DataError):
            load_plan(path)

    @pytest.mark.parametrize("metadata", ["[1, 2]", "null", '"text"'])
    def test_metadata_not_object(self, tmp_path, metadata):
        path = self.plan_file(tmp_path / "plan.json", '[[[0]]], "metadata": ' + metadata)
        with pytest.raises(FormatError, match="plan.json"):
            load_plan(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_metadata_in_file_is_format_error(self, tmp_path, value):
        # Python's reader accepts these tokens, but they are not JSON
        path = self.plan_file(tmp_path / "plan.json", '[[[0]]], "metadata": {"a": ' + value + "}")
        with pytest.raises(FormatError, match=r"plan.json: metadata must be a JSON object of JSON values \(Out of range"):
            load_plan(path)

    @pytest.mark.parametrize(
        "key, value", [("policy_name", ["x"]), ("policy_name", None), ("seed", "abc"), ("seed", True), ("seed", 1.5)]
    )
    def test_policy_name_and_seed_types(self, tmp_path, capsys, key, value):
        doc = {"version": 1, "retention_target": 0.5, "policy_name": "x", "seed": None, "layers": [[[0]]], key: value}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"plan.json: {key} must be"):
            load_plan(plan)
        save_bundle(make_bundle(np.random.default_rng(9), heads=1), tmp_path / "b.kvt")
        code = main(["apply", "--bundle", str(tmp_path / "b.kvt"), "--plan", str(plan), "--out", str(tmp_path / "o.kvt")])
        assert code == 2 and key in capsys.readouterr().err
        assert not (tmp_path / "o.kvt").exists()

    @pytest.mark.parametrize("version", [True, 1.0, 2, "1"], ids=["bool", "float", "two", "string"])
    def test_version_must_be_the_int_one(self, tmp_path, capsys, version):
        doc = {"version": version, "retention_target": 0.5, "policy_name": "x", "seed": None, "layers": [[[0]]]}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="plan.json: unsupported plan version"):
            load_plan(plan)
        save_bundle(make_bundle(np.random.default_rng(9), heads=1), tmp_path / "b.kvt")
        code = main(["apply", "--bundle", str(tmp_path / "b.kvt"), "--plan", str(plan), "--out", str(tmp_path / "o.kvt")])
        assert code == 2 and "unsupported plan version" in capsys.readouterr().err
        assert not (tmp_path / "o.kvt").exists()

    def test_integer_retention_target_from_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"version": 1, "retention_target": 1, "policy_name": "x", "seed": null, "layers": [[[0]]]}'
        )
        plan = load_plan(path)
        assert plan.retention_target == 1.0


class TestRetainedIndices:
    @staticmethod
    def plan(retained):
        return RetentionPlan(retained=retained, retention_target=0.5, policy_name="x")

    def test_asarray_is_the_heads_read_only_array(self):
        head = self.plan([[np.array([0, 2, 5])]]).retained[0][0]
        arr = np.asarray(head)
        assert np.asarray(head) is arr and np.asarray(head, dtype="<i8") is arr
        assert arr.dtype == np.int64 and arr.flags.c_contiguous and not arr.flags.writeable
        assert np.shares_memory(head, arr) and not np.shares_memory(head[1:], arr)  # a slice owns a copy
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
        assert head == (0, 2, 5)

    def test_plan_never_aliases_its_callers_array(self):
        src = np.array([0, 2, 5], dtype=np.int64)
        plan = self.plan([[src]])
        src[0] = 1
        assert plan.retained[0][0] == (0, 2, 5) and not np.shares_memory(src, plan.retained[0][0])
        head = RetainedIndices(np.array([1, 4]))
        assert self.plan([[head]]).retained[0][0] is head

    def test_compares_and_hashes_as_its_tuple(self):
        head = self.plan([[[0, 2, 5]]]).retained[0][0]
        assert isinstance(head, Sequence) and len(head) == 3 and list(head) == [0, 2, 5]
        assert all(type(v) is int for v in (*head, head[0], head[-1]))
        assert head == (0, 2, 5) and (0, 2, 5) == head and head == [0, 2, 5] and [0, 2, 5] == head
        assert head != (0, 2) and head != (0, 2, 6) and head != RetainedIndices([0, 2]) and head != "025"
        assert hash(head) == hash((0, 2, 5)) and {(0, 2, 5): "kept"}[head] == "kept"
        assert isinstance(head[1:], RetainedIndices) and head[1:] == (2, 5) and head[::-1] == (5, 2, 0)
        assert 5 in head and 4 not in head and head.index(5) == 2 and repr(head) == "RetainedIndices([0, 2, 5])"
        same = self.plan([[(0, 2, 5)]])
        assert (same.retained == self.plan([[np.array([0, 2, 5])]]).retained) is True

    def test_pickle_and_deepcopy_round_trip(self):
        plan = RetentionPlan(
            retained=[[np.array([0, 2, 5]), np.array([1])], [np.array([3, 4]), np.array([2**62])]],
            retention_target=(0.25, 0.5),
            policy_name="compactor",
            seed=3,
            metadata={"a": [1, 2]},
        )
        for copied in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan)):
            assert copied == plan and copied.retained[1][1] == (2**62,)
            assert all(isinstance(head, RetainedIndices) for layer in copied.retained for head in layer)
            assert not np.asarray(copied.retained[0][0]).flags.writeable

    def test_index_kinds_build_equal_plans_and_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        heads = [[np.sort(rng.choice(1000, 40, replace=False)) for _ in range(3)] for _ in range(2)]
        kinds = {
            "int64": heads,
            "tuple": [[tuple(h.tolist()) for h in layer] for layer in heads],
            "list": [[h.tolist() for h in layer] for layer in heads],
            "retained": [[RetainedIndices(h) for h in layer] for layer in heads],
        }
        saved = {}
        for kind, retained in kinds.items():
            plan = self.plan(retained)
            assert plan == self.plan(heads), kind
            save_plan(plan, tmp_path / f"{kind}.json")
            saved[kind] = (tmp_path / f"{kind}.json").read_bytes()
        assert len(set(saved.values())) == 1

    def test_direct_construction_checks_its_values(self):
        with pytest.raises(DataError, match="^retained indices must be integers, got bool$"):
            RetainedIndices([1, True])
        with pytest.raises(DataError, match="^retained indices must be one flat sequence, got 2 dimensions$"):
            RetainedIndices(np.zeros((2, 2), np.int64))
        with pytest.raises(DataError, match="^retained index beyond int64"):
            RetainedIndices([2**63])

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(0, 2**63 - 1) | st.integers(0, 12), min_size=1, max_size=30))
    def test_index_text_is_json_of_the_ints(self, values):
        idx = np.array(sorted(values), dtype=np.int64)
        assert kvstore._index_json(idx) == json.dumps(idx.tolist()).encode()

    def test_loaded_plan_holds_its_indices_as_int64(self, tmp_path):
        # 16 heads of 16384 indices: 8 B each as int64, about 40 B each as a tuple of Python ints
        rng = np.random.default_rng(0)
        n_heads, n_idx = 16, 16384
        heads = [[np.sort(rng.choice(2 * n_idx, n_idx, replace=False)) for _ in range(n_heads)]]
        path = tmp_path / "plan.json"
        save_plan(self.plan(heads), path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = load_plan(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert list(plan.retained[0][-1]) == heads[0][-1].tolist()
        assert held / (n_heads * n_idx) <= 12, f"loaded plan holds {held / (n_heads * n_idx):.1f} B per index"


class TestApplyPlan:
    def test_row_selection(self):
        b = make_bundle(np.random.default_rng(3), heads=1, n=4, d=2)
        plan = RetentionPlan(retained=(((1, 3),),), retention_target=0.5, policy_name="x")
        out = apply_plan(b, plan)
        assert np.array_equal(out.keys[0][0], b.keys[0][0][[1, 3]])
        assert np.array_equal(out.values[0][0], b.values[0][0][[1, 3]])
        assert out.seq_len == 2

    def test_identity(self):
        b = make_bundle(np.random.default_rng(4), heads=1, n=4)
        plan = RetentionPlan(retained=(((0, 1, 2, 3),),), retention_target=1.0, policy_name="x")
        out = apply_plan(b, plan)
        assert np.array_equal(out.keys[0][0], b.keys[0][0])

    def test_out_of_range(self):
        b = make_bundle(np.random.default_rng(5), heads=1, n=4)
        plan = RetentionPlan(retained=(((1, 7),),), retention_target=0.5, policy_name="x")
        with pytest.raises(PlanMismatchError):
            apply_plan(b, plan)

    def test_head_count_mismatch(self):
        b = make_bundle(np.random.default_rng(6), heads=2, n=4)
        plan = RetentionPlan(retained=(((0,),),), retention_target=0.5, policy_name="x")
        with pytest.raises(PlanMismatchError):
            apply_plan(b, plan)

    def test_ragged_per_layer_result(self):
        b = make_bundle(np.random.default_rng(7), layers=2, heads=1, n=6)
        plan = RetentionPlan(retained=(((0,),), ((0, 1, 2),)), retention_target=(0.17, 0.5), policy_name="x")
        out = apply_plan(b, plan)
        assert out.is_ragged
        assert out.seq_lens.tolist() == [[1], [3]]

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_gather_equals_fancy_indexing(self, monkeypatch, cores, ragged):
        monkeypatch.setattr(_pool, "_cores", lambda: cores)
        rng = np.random.default_rng(9)
        b = make_bundle(rng, layers=2, heads=3, n=50, d=4, queries=ragged)
        sizes = [[5, 5, 5], [20, 20, 20]] if ragged else [[12, 12, 12], [12, 12, 12]]
        retained = [[sorted(rng.choice(np.arange(1, 49), size=k, replace=False).tolist()) for k in layer] for layer in sizes]
        retained[0][0][0], retained[0][0][-1] = 0, 49  # both ends of the range
        plan = RetentionPlan(retained=retained, retention_target=(0.1, 0.4) if ragged else 0.24, policy_name="x")
        out = apply_plan(b, plan)
        assert out.is_ragged == ragged and out.has_queries == ragged
        for name in ("keys_prerope", "keys", "values") + (("queries",) if ragged else ()):
            for l in range(2):
                for h in range(3):
                    got = getattr(out, name)[l][h]
                    assert got.dtype == np.float32 and not got.flags.writeable
                    assert np.array_equal(got, getattr(b, name)[l][h][retained[l][h]])

    def test_output_not_scanned_again(self, monkeypatch):
        # the gathered rows are copies of rows the input bundle tested, so the output takes their flags
        b = make_bundle(np.random.default_rng(10), layers=2, heads=2, n=8, d=3)
        scans = []
        monkeypatch.setattr(kvstore, "_finite", lambda mat: scans.append(mat.shape) or True)
        plan = RetentionPlan(retained=[[(0, 5), (2, 3, 7)], [(1,), (0, 4, 6)]], retention_target=0.5, policy_name="x")
        out = apply_plan(b, plan)
        assert scans == []
        for name in ("keys_prerope", "keys", "values", "queries"):
            for l in range(2):
                for h in range(2):
                    got = getattr(out, name)[l][h]
                    assert not got.flags.writeable
                    assert np.array_equal(got, getattr(b, name)[l][h][list(plan.retained[l][h])])

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_rows_kept_verbatim(self, data):
        n = data.draw(st.integers(2, 16))
        idx = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        b = make_bundle(rng, heads=1, n=n, d=3)
        plan = RetentionPlan(retained=((tuple(idx),),), retention_target=1.0, policy_name="x")
        out = apply_plan(b, plan)
        assert np.array_equal(out.keys[0][0], b.keys[0][0][idx])
        assert np.array_equal(out.queries[0][0], b.queries[0][0][idx])


class TestRetainedCount:
    @pytest.mark.parametrize(
        "r,n,expected",
        [(0.34, 3, 2), (0.3, 10000, 3000), (1.0, 7, 7), (1e-9, 5, 1), (0.5, 4, 2), (0.1, 1000, 100)],
    )
    def test_cases(self, r, n, expected):
        assert retained_count(r, n) == expected

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            retained_count(0.0, 5)
        with pytest.raises(ParameterError):
            retained_count(1.1, 5)
