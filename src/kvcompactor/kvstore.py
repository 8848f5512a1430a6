"""Tensor containers and the on-disk bundle/plan formats.

KVT1 bundle file (little-endian)::

    magic    4 bytes   b"KVT1"
    u32      n_layers
    u32      n_kv_heads
    u32      seq_len
    u32      head_dim
    u8       flags     bit0: queries present, bit1: pre-rope keys present
    payload  float32, row-major, layer-major then head-major,
             per head: [keys_prerope?, keys, values, queries?]

Retention plan file: one JSON document::

    {"version": 1, "retention_target": r, "policy_name": "...", "seed": ...,
     "layers": [[[idx, ...] per head] per layer], "metadata": {...}}

Bundles carry both pre-position-embedding keys (scored by the leverage
module) and the position-embedded keys the live cache would hold, so the
library stays agnostic of any particular position-encoding scheme. For
grouped-query models, build one query matrix per KV head (the grouped
queries stacked row-wise) before writing the bundle.
"""

import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

import numpy as np

from .errors import DataError, FormatError, ParameterError, PlanMismatchError, TruncationError

_MAGIC = b"KVT1"
_HEADER = struct.Struct("<4sIIIIB")
_FLAG_QUERIES = 0x01
_FLAG_PREROPE = 0x02
PLAN_VERSION = 1

SCORE_KINDS = ("outlier", "attention", "blended", "baseline")


def retained_count(r: float, n: int) -> int:
    """Tokens kept at retention rate ``r`` out of ``n``: max(1, ceil(r*n)).

    The tiny guard keeps decimal retentions from rounding float residue up
    (0.3 * 10000 must give 3000, not 3001).
    """
    if not 0.0 < r <= 1.0:
        raise ParameterError(f"retention rate must be in (0, 1], got {r}")
    return max(1, math.ceil(r * n - 1e-9))


@dataclass(frozen=True)
class ScoreVector:
    """Length-N importance scores for one head."""

    scores: np.ndarray
    kind: str

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("scores must be a non-empty 1-D vector")
        if not np.isfinite(arr).all():
            raise DataError("scores contain non-finite values")
        if self.kind not in SCORE_KINDS:
            raise ParameterError(f"unknown score kind {self.kind!r}")
        object.__setattr__(self, "scores", arr)

    def __len__(self):
        return self.scores.shape[0]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    arr.flags.writeable = False
    return arr


def _as_nested(data, name: str):
    """Normalize (L, H, N, d) arrays or nested [layer][head] matrices to tuples."""
    if isinstance(data, np.ndarray):
        if data.ndim != 4:
            raise ParameterError(f"{name}: expected a (layers, heads, seq, dim) array")
        return tuple(tuple(_freeze(data[l, h]) for h in range(data.shape[1])) for l in range(data.shape[0]))
    layers = []
    for layer in data:
        heads = []
        for mat in layer:
            mat = np.asarray(mat)
            if mat.ndim != 2:
                raise ParameterError(f"{name}: each per-head matrix must be 2-D")
            heads.append(_freeze(mat))
        layers.append(tuple(heads))
    return tuple(layers)


@dataclass(frozen=True)
class HeadTensors:
    """The matrices of one (layer, head), as float32 views."""

    keys: np.ndarray
    values: np.ndarray
    keys_prerope: Optional[np.ndarray]
    queries: Optional[np.ndarray]


@dataclass(frozen=True)
class KVBundle:
    """Per-layer, per-head key/value/query matrices for one context.

    Matrices are float32 and read-only after construction; every operation
    treats bundles as immutable values. Per-head sequence lengths may differ
    after applying a per-layer retention plan (``is_ragged``); the KVT1 file
    format only represents uniform bundles.
    """

    keys: tuple
    values: tuple
    keys_prerope: Optional[tuple] = None
    queries: Optional[tuple] = None

    def __post_init__(self):
        keys = _as_nested(self.keys, "keys")
        values = _as_nested(self.values, "values")
        prerope = None if self.keys_prerope is None else _as_nested(self.keys_prerope, "keys_prerope")
        queries = None if self.queries is None else _as_nested(self.queries, "queries")

        if len(keys) < 1 or len(keys[0]) < 1:
            raise ParameterError("bundle needs at least one layer and one head")
        n_heads = len(keys[0])
        d = keys[0][0].shape[1]
        for group_name, group in (("values", values), ("keys_prerope", prerope), ("queries", queries)):
            if group is not None and (len(group) != len(keys) or any(len(lay) != n_heads for lay in group)):
                raise ParameterError(f"{group_name}: layer/head structure differs from keys")
        for l, layer in enumerate(keys):
            if len(layer) != n_heads:
                raise ParameterError("all layers must have the same head count")
            for h, k in enumerate(layer):
                n_tok = k.shape[0]
                if n_tok < 1 or k.shape[1] != d:
                    raise ParameterError(f"keys[{l}][{h}]: bad shape {k.shape}")
                for group_name, group in (("values", values), ("keys_prerope", prerope), ("queries", queries)):
                    if group is not None and group[l][h].shape != (n_tok, d):
                        raise ParameterError(
                            f"{group_name}[{l}][{h}]: shape {group[l][h].shape} != keys shape {(n_tok, d)}"
                        )
        for group in (keys, values, prerope, queries):
            if group is None:
                continue
            for layer in group:
                for mat in layer:
                    if not np.isfinite(mat).all():
                        raise DataError("bundle contains non-finite values")

        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "keys_prerope", prerope)
        object.__setattr__(self, "queries", queries)

    @property
    def n_layers(self) -> int:
        return len(self.keys)

    @property
    def n_kv_heads(self) -> int:
        return len(self.keys[0])

    @property
    def head_dim(self) -> int:
        return self.keys[0][0].shape[1]

    @property
    def seq_lens(self) -> np.ndarray:
        """Per-(layer, head) token counts, shape (n_layers, n_kv_heads)."""
        return np.array([[k.shape[0] for k in layer] for layer in self.keys], dtype=np.int64)

    @property
    def is_ragged(self) -> bool:
        lens = self.seq_lens
        return bool((lens != lens.flat[0]).any())

    @property
    def seq_len(self) -> int:
        """Common token count; raises for ragged bundles."""
        lens = self.seq_lens
        if (lens != lens.flat[0]).any():
            raise ParameterError("bundle is ragged; use seq_lens")
        return int(lens.flat[0])

    @property
    def has_queries(self) -> bool:
        return self.queries is not None

    @property
    def has_prerope(self) -> bool:
        return self.keys_prerope is not None

    def head(self, layer: int, head: int) -> HeadTensors:
        """Tensors of one (layer, head)."""
        return HeadTensors(
            keys=self.keys[layer][head],
            values=self.values[layer][head],
            keys_prerope=None if self.keys_prerope is None else self.keys_prerope[layer][head],
            queries=None if self.queries is None else self.queries[layer][head],
        )


def save_bundle(bundle: KVBundle, path) -> None:
    """Write a uniform bundle in KVT1 format (bit-exact float32 round trip)."""
    if bundle.is_ragged:
        raise FormatError("KVT1 carries a single seq_len; cannot save a ragged bundle")
    flags = (_FLAG_QUERIES if bundle.has_queries else 0) | (_FLAG_PREROPE if bundle.has_prerope else 0)
    header = _HEADER.pack(_MAGIC, bundle.n_layers, bundle.n_kv_heads, bundle.seq_len, bundle.head_dim, flags)
    with open(path, "wb") as fh:
        fh.write(header)
        for l in range(bundle.n_layers):
            for h in range(bundle.n_kv_heads):
                ht = bundle.head(l, h)
                for mat in (ht.keys_prerope, ht.keys, ht.values, ht.queries):
                    if mat is not None:
                        fh.write(mat)


def load_bundle(path) -> KVBundle:
    """Read and fully validate a KVT1 bundle file (a regular file, not a pipe).

    The declared payload size is checked against the file before anything is
    allocated; the payload is read once into an owned float32 array, whose
    views are the bundle's matrices, and KVBundle's constructor is the one
    finiteness check. Not a memmap: later writes to the file must not reach
    a bundle that was already validated.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < 4 or header[:4] != _MAGIC:
            raise FormatError(f"{path}: bad magic bytes")
        if len(header) < _HEADER.size:
            raise TruncationError(f"{path}: header truncated")
        _, n_layers, n_heads, seq_len, head_dim, flags = _HEADER.unpack(header)
        if min(n_layers, n_heads, seq_len, head_dim) < 1:
            raise FormatError(f"{path}: header declares a zero dimension")
        if flags & ~(_FLAG_QUERIES | _FLAG_PREROPE):
            raise FormatError(f"{path}: unknown flag bits 0x{flags:02x}")
        has_q = bool(flags & _FLAG_QUERIES)
        has_pre = bool(flags & _FLAG_PREROPE)
        n_tensors = 2 + has_q + has_pre
        expected = n_layers * n_heads * n_tensors * seq_len * head_dim * 4
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size == expected:
            data = np.empty((n_layers, n_heads, n_tensors, seq_len, head_dim), dtype="<f4")
            size = fh.readinto(data)
        if size != expected:
            raise TruncationError(f"{path}: payload is {size} bytes, header declares {expected}")
    t = 0
    prerope = data[:, :, t] if has_pre else None
    t += has_pre
    keys = data[:, :, t]
    values = data[:, :, t + 1]
    queries = data[:, :, t + 2] if has_q else None
    try:
        return KVBundle(keys=keys, values=values, keys_prerope=prerope, queries=queries)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _index_tuple(head, where: str) -> tuple:
    """One plan head's indices as a tuple of ints, checked in one vectorized pass."""
    kinds = set(map(type, head))
    if not kinds:
        raise DataError(f"{where}: empty retained list (at least 1 token is kept per head)")
    bad = sorted(t.__name__ for t in kinds if issubclass(t, (bool, np.bool_)) or not issubclass(t, (int, np.integer)))
    if bad:
        raise DataError(f"{where}: retained indices must be integers, got {', '.join(bad)}")
    try:
        idx = np.asarray(head, dtype=np.int64)
    except OverflowError as exc:
        raise DataError(f"{where}: retained index beyond int64 ({exc})") from exc
    steps = np.flatnonzero(np.diff(idx) <= 0)
    if steps.size:
        i = steps[0]
        raise DataError(f"{where}: indices must be strictly increasing, got {idx[i + 1]} after {idx[i]}")
    if idx[0] < 0:
        raise DataError(f"{where}: negative index {idx[0]}")
    return tuple(idx.tolist())


@dataclass(frozen=True)
class RetentionPlan:
    """Per-(layer, head) sorted token index sets to keep."""

    retained: tuple
    retention_target: Union[float, tuple]
    policy_name: str
    seed: Optional[int] = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        layers = tuple(
            tuple(_index_tuple(head, f"layer {l} head {h}") for h, head in enumerate(layer))
            for l, layer in enumerate(self.retained)
        )
        if len(layers) < 1 or any(len(layer) < 1 for layer in layers):
            raise DataError("plan needs at least one layer and one head")
        targets = self.retention_target
        for r in targets if isinstance(targets, (tuple, list)) else (targets,):
            if not (isinstance(r, (int, float)) and 0.0 < float(r) <= 1.0):
                raise DataError(f"retention target {r!r} outside (0, 1]")
        if isinstance(targets, (tuple, list)):
            object.__setattr__(self, "retention_target", tuple(float(r) for r in targets))
        else:
            object.__setattr__(self, "retention_target", float(targets))
        object.__setattr__(self, "retained", layers)

    @property
    def n_layers(self) -> int:
        return len(self.retained)

    @property
    def n_kv_heads(self) -> int:
        return len(self.retained[0])


def save_plan(plan: RetentionPlan, path) -> None:
    """Write a plan as a JSON document; load_plan(save_plan(p)) == p."""
    target = plan.retention_target
    doc = {
        "version": PLAN_VERSION,
        "retention_target": list(target) if isinstance(target, tuple) else target,
        "policy_name": plan.policy_name,
        "seed": plan.seed,
        "layers": [[list(head) for head in layer] for layer in plan.retained],
        "metadata": dict(plan.metadata),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_plan(path) -> RetentionPlan:
    """Read and invariant-check a plan file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: plan document must be a JSON object")
    try:
        version = doc["version"]
        target = doc["retention_target"]
        policy_name = doc["policy_name"]
        seed = doc["seed"]
        layers = doc["layers"]
    except KeyError as exc:
        raise FormatError(f"{path}: missing plan key {exc}") from exc
    if version != PLAN_VERSION:
        raise FormatError(f"{path}: unsupported plan version {version!r}")
    if not isinstance(layers, list) or not all(
        isinstance(layer, list) and all(isinstance(head, list) for head in layer) for layer in layers
    ):
        raise FormatError(f"{path}: layers must be a list of layers, each a list of per-head index lists")
    return RetentionPlan(
        retained=layers,
        retention_target=target,
        policy_name=policy_name,
        seed=seed,
        metadata=doc.get("metadata", {}),
    )


def apply_plan(bundle: KVBundle, plan: RetentionPlan) -> KVBundle:
    """Select the retained rows of every (layer, head), preserving order.

    Rows are copied verbatim (no rescaling): deterministic top-k retention
    keeps the raw rows, unlike sampling schemes that reweight them.
    """
    if plan.n_layers != bundle.n_layers or plan.n_kv_heads != bundle.n_kv_heads:
        raise PlanMismatchError(
            f"plan covers {plan.n_layers}x{plan.n_kv_heads} heads, "
            f"bundle has {bundle.n_layers}x{bundle.n_kv_heads}"
        )

    rows = [[np.asarray(idx) for idx in layer] for layer in plan.retained]
    for (l, h), n in np.ndenumerate(bundle.seq_lens):
        if rows[l][h][-1] >= n:
            raise PlanMismatchError(f"layer {l} head {h}: index {rows[l][h][-1]} out of range for seq_len {n}")

    def gather(group):
        return None if group is None else [[m[i] for m, i in zip(layer, picks)] for layer, picks in zip(group, rows)]

    return KVBundle(
        keys=gather(bundle.keys),
        values=gather(bundle.values),
        keys_prerope=gather(bundle.keys_prerope),
        queries=gather(bundle.queries),
    )
