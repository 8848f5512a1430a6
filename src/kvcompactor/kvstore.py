"""Tensor containers and the on-disk bundle/plan formats.

KVT1 bundle file (little-endian)::

    magic    4 bytes   b"KVT1"
    u32      n_layers
    u32      n_kv_heads
    u32      seq_len
    u32      head_dim
    u8       flags     bit0: queries present, bit1: pre-rope keys present
    payload  float32, row-major, layer-major then head-major,
             per head: the present tensors in ``_LAYOUT`` order,
             [keys_prerope?, keys, values, queries?]

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
# the per-head tensors in KVT1 payload order, with the flag bit that marks an
# optional one present (0: always present); every tensor list walks this table
_LAYOUT = (("keys_prerope", _FLAG_PREROPE), ("keys", 0), ("values", 0), ("queries", _FLAG_QUERIES))
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


_RANK_ERROR = "expected a (layers, heads, seq, dim) array or nested [layer][head] 2-D matrices"


def _freeze(mat, name: str) -> np.ndarray:
    mat = np.ascontiguousarray(mat, dtype=np.float32)
    if mat.ndim != 2:
        raise ParameterError(f"{name}: {_RANK_ERROR}")
    mat.flags.writeable = False
    return mat


def _present(bundle) -> list:
    """The `_LAYOUT` rows of the tensors a bundle carries, in payload order."""
    return [(name, bit) for name, bit in _LAYOUT if not bit or getattr(bundle, name) is not None]


def _as_nested(data, name: str):
    """Normalize (L, H, N, d) arrays or nested [layer][head] matrices to tuples."""
    try:
        return tuple(tuple(_freeze(mat, name) for mat in layer) for layer in data)
    except TypeError as exc:  # a scalar where a layer or the whole group should be
        raise ParameterError(f"{name}: {_RANK_ERROR}") from exc


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
        tensors = {name: _as_nested(getattr(self, name), name) for name, _ in _present(self)}
        keys = tensors["keys"]
        if len(keys) < 1 or len(keys[0]) < 1:
            raise ParameterError("bundle needs at least one layer and one head")
        n_heads, d = len(keys[0]), keys[0][0].shape[1]
        for name, group in tensors.items():
            if len(group) != len(keys) or any(len(layer) != n_heads for layer in group):
                raise ParameterError(f"{name}: expected {len(keys)} layers of {n_heads} heads")
            # a short keys layer can end zip early here, but keys' own turn rejects it
            for l, (layer, key_layer) in enumerate(zip(group, keys)):
                for h, (mat, k) in enumerate(zip(layer, key_layer)):
                    want = (k.shape[0], d)
                    if mat.shape != want or min(want) < 1:
                        raise ParameterError(f"{name}[{l}][{h}]: bad shape {mat.shape} (keys give {want}; seq, dim >= 1)")
                    if not np.isfinite(mat).all():
                        raise DataError(f"{name}[{l}][{h}]: bundle contains non-finite values")
        for name, _ in _LAYOUT:
            object.__setattr__(self, name, tensors.get(name))

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
        if self.is_ragged:
            raise ParameterError("bundle is ragged; use seq_lens")
        return self.keys[0][0].shape[0]

    @property
    def has_queries(self) -> bool:
        return self.queries is not None

    @property
    def has_prerope(self) -> bool:
        return self.keys_prerope is not None

    def head(self, layer: int, head: int) -> HeadTensors:
        """Tensors of one (layer, head); None for an optional tensor the bundle lacks."""
        groups = {name: getattr(self, name) for name, _ in _LAYOUT}
        return HeadTensors(**{name: None if mats is None else mats[layer][head] for name, mats in groups.items()})


def save_bundle(bundle: KVBundle, path) -> None:
    """Write a uniform bundle in KVT1 format (bit-exact float32 round trip)."""
    if bundle.is_ragged:
        raise FormatError("KVT1 carries a single seq_len; cannot save a ragged bundle")
    present = _present(bundle)
    flags = sum(bit for _, bit in present)
    groups = [getattr(bundle, name) for name, _ in present]
    header = _HEADER.pack(_MAGIC, bundle.n_layers, bundle.n_kv_heads, bundle.seq_len, bundle.head_dim, flags)
    with open(path, "wb") as fh:
        fh.write(header)
        for l in range(bundle.n_layers):
            for h in range(bundle.n_kv_heads):
                for mats in groups:
                    fh.write(mats[l][h])


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
        names = [name for name, bit in _LAYOUT if not bit or flags & bit]
        expected = n_layers * n_heads * len(names) * seq_len * head_dim * 4
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size == expected:
            data = np.empty((n_layers, n_heads, len(names), seq_len, head_dim), dtype="<f4")
            size = fh.readinto(data)
        if size != expected:
            raise TruncationError(f"{path}: payload is {size} bytes, header declares {expected}")
    try:
        return KVBundle(**{name: data[:, :, slot] for slot, name in enumerate(names)})
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
        if len(layers) < 1 or len(layers[0]) < 1:
            raise DataError("plan needs at least one layer and one head")
        if any(len(layer) != len(layers[0]) for layer in layers):
            raise DataError(f"plan layers must all have layer 0's {len(layers[0])} heads")
        targets = self.retention_target
        per_layer = isinstance(targets, (tuple, list))
        if per_layer and len(targets) != len(layers):
            raise DataError(f"plan has {len(targets)} per-layer retention targets for {len(layers)} layers")
        for r in targets if per_layer else (targets,):
            if isinstance(r, bool) or not (isinstance(r, (int, float)) and 0.0 < r <= 1.0):
                raise DataError(f"retention target {r!r} is not a number in (0, 1]")
        object.__setattr__(self, "retention_target", tuple(float(r) for r in targets) if per_layer else float(targets))
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
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise FormatError(f"{path}: plan metadata must be a JSON object")
    return RetentionPlan(
        retained=layers,
        retention_target=target,
        policy_name=policy_name,
        seed=seed,
        metadata=metadata,
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

    return KVBundle(**{
        name: [[m[i] for m, i in zip(layer, picks)] for layer, picks in zip(getattr(bundle, name), rows)]
        for name, _ in _present(bundle)
    })
