import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcompactor import KVBundle, RetentionPlan, apply_plan, load_bundle, load_plan, retained_count, save_bundle, save_plan
from kvcompactor.errors import DataError, FormatError, ParameterError, PlanMismatchError, TruncationError
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

    def test_ragged_bundle_not_saveable(self, tmp_path):
        b = KVBundle(
            keys=[[np.ones((3, 2), np.float32), np.ones((2, 2), np.float32)]],
            values=[[np.ones((3, 2), np.float32), np.ones((2, 2), np.float32)]],
        )
        assert b.is_ragged
        with pytest.raises(FormatError):
            save_bundle(b, tmp_path / "b.kvt")

    def test_bundle_arrays_read_only(self):
        b = make_bundle(np.random.default_rng(2))
        with pytest.raises(ValueError):
            b.keys[0][0][0, 0] = 1.0

    def test_nonfinite_construction_rejected(self):
        bad = np.full((1, 1, 2, 2), np.inf, dtype=np.float32)
        with pytest.raises(DataError):
            KVBundle(keys=bad, values=bad)


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

    def test_per_layer_targets_round_trip(self, tmp_path):
        plan = RetentionPlan(
            retained=(((0,),), ((1, 2),)),
            retention_target=(0.25, 0.5),
            policy_name="compactor",
        )
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

    @pytest.mark.parametrize("layers", ["[5]", "[[5]]"])
    def test_layers_structure_is_format_error(self, tmp_path, layers):
        with pytest.raises(FormatError):
            load_plan(self.plan_file(tmp_path / "plan.json", layers))

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

    def test_integer_retention_target_from_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"version": 1, "retention_target": 1, "policy_name": "x", "seed": null, "layers": [[[0]]]}'
        )
        plan = load_plan(path)
        assert plan.retention_target == 1.0


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
