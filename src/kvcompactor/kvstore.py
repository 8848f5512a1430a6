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
library stays agnostic of any particular position-encoding scheme. Each KV
head carries one (N, d) query matrix, whose row i is the query at position
i; a grouped-query model's several query heads per KV head do not fit a
bundle yet.
"""

import contextlib
import json
import math
import os
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Optional, Union

import numpy as np

from ._pool import map_heads
from .errors import DataError, FormatError, ParameterError, PlanMismatchError, TruncationError, _check_field

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
    _check_field("retention rate", r, "real", "(0, 1]")
    return max(1, math.ceil(r * n - 1e-9))


def _rates(value, error):
    """A retention rate in (0, 1] as a float, or a non-empty list of them as a tuple of floats.

    Anything else, a bool included, raises `error`.
    """
    per_layer = isinstance(value, (tuple, list))
    if per_layer and not value:
        raise error("retention list is empty")
    for r in value if per_layer else (value,):
        _check_field("retention rate", r, "real", "(0, 1]", error)
    return tuple(map(float, value)) if per_layer else float(value)


@dataclass(frozen=True)
class ScoreVector:
    """Length-N importance scores for one head."""

    scores: np.ndarray
    kind: str

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("scores must be a non-empty 1-D vector")
        if not _finite(arr):
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


def _finite(arr: np.ndarray) -> bool:
    """True when every entry of a real array is finite.

    A NaN or inf reaches the max or the min, which need no temporary; initial=0 keeps integer and empty arrays in range.
    """
    return bool(np.isfinite(arr.max(initial=0)) and np.isfinite(arr.min(initial=0)))


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
    treats bundles as immutable values. Float32 C-contiguous inputs are kept
    without a copy, so the bundle shares memory with the caller's arrays
    and callers must not write to them afterwards; other inputs are copied,
    and ``load_bundle``'s bundles own their payload. Per-head sequence
    lengths may differ after applying a per-layer retention plan
    (``is_ragged``); the KVT1 file format only represents uniform bundles.
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
        n_layers, n_heads, d = len(keys), len(keys[0]), keys[0][0].shape[1]
        for name, group in tensors.items():
            if len(group) != n_layers or any(len(layer) != n_heads for layer in group):
                raise ParameterError(f"{name}: expected {n_layers} layers of {n_heads} heads")

        def scan(l, h):  # a matrix that two groups share is scanned once
            mats = {id(group[l][h]): group[l][h] for group in tensors.values()}
            return {key: _finite(mat) for key, mat in mats.items()}

        # the scans run on the pool; the loop below reads them in order, so the first bad matrix is the one named
        finite = map_heads(scan, n_layers, n_heads)
        for name, group in tensors.items():
            for l, layer in enumerate(group):
                for h, mat in enumerate(layer):
                    want = (keys[l][h].shape[0], d)
                    if mat.shape != want or min(want) < 1:
                        raise ParameterError(f"{name}[{l}][{h}]: bad shape {mat.shape} (keys give {want}; seq, dim >= 1)")
                    if not finite[l][h][id(mat)]:
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
    """Write a uniform bundle in KVT1 format (bit-exact float32 round trip).

    An existing file is rewritten in place, not truncated first: a zeroed
    header, then the payload, then a truncate at the payload's end, and only
    then the real header. A save that fails part-way thus leaves a file that
    load_bundle rejects (bad magic), never a mix of old and new data read as
    a bundle. A symlink is written through to its target. Nothing is
    fsynced: a caller that needs the file to survive a power cut must fsync
    it. ``path`` must be a regular file, or where one can be created.
    """
    if bundle.is_ragged:
        raise FormatError("KVT1 carries a single seq_len; cannot save a ragged bundle")
    present = _present(bundle)
    flags = sum(bit for _, bit in present)
    groups = [getattr(bundle, name) for name, _ in present]
    header = _HEADER.pack(_MAGIC, bundle.n_layers, bundle.n_kv_heads, bundle.seq_len, bundle.head_dim, flags)
    # no O_TRUNC: on ext4, closing a file truncated to 0 and rewritten starts its writeback, which the next such save waits on
    with open(path, "wb", opener=lambda p, f: os.open(p, f & ~os.O_TRUNC, 0o666)) as fh:
        fh.write(bytes(_HEADER.size))
        for l in range(bundle.n_layers):
            for h in range(bundle.n_kv_heads):
                for mats in groups:
                    fh.write(mats[l][h])
        fh.truncate()
        fh.seek(0)
        fh.write(header)


@contextlib.contextmanager
def _naming(path):
    """Put `path` in front of every error raised inside: the one place where a reader's errors name its file."""
    try:
        yield
    except (DataError, TruncationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (FormatError, ParameterError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _read_span(fd: int, payload: memoryview, start: int, size: int) -> None:
    """Fill payload[start : start + size] from the file at fd; a 0-byte read before the end is a TruncationError."""
    while size:
        n = os.preadv(fd, [payload[start : start + size]], _HEADER.size + start)
        if n == 0:
            raise TruncationError(f"payload ends at byte {start}, before the size its header declares")
        start, size = start + n, size - n


def load_bundle(path) -> KVBundle:
    """Read and fully validate a KVT1 bundle file (a regular file, not a pipe).

    The declared payload size is checked against the file before anything is
    allocated. The payload is read once into one owned float32 array,
    allocated on the calling thread, whose views are the bundle's matrices:
    each (layer, head)'s contiguous span is read with ``os.preadv`` at its
    own offset, one thread per usable core. A read that comes up short (the
    file shrank meanwhile) is a TruncationError, and KVBundle's constructor
    is the one finiteness check. Not a memmap: later writes to the file must
    not reach a bundle that was already validated.
    """
    with _naming(path), open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < 4 or header[:4] != _MAGIC:
            raise FormatError("bad magic bytes")
        if len(header) < _HEADER.size:
            raise TruncationError("header truncated")
        _, n_layers, n_heads, seq_len, head_dim, flags = _HEADER.unpack(header)
        if min(n_layers, n_heads, seq_len, head_dim) < 1:
            raise FormatError("header declares a zero dimension")
        if flags & ~(_FLAG_QUERIES | _FLAG_PREROPE):
            raise FormatError(f"unknown flag bits 0x{flags:02x}")
        names = [name for name, bit in _LAYOUT if not bit or flags & bit]
        head_bytes = len(names) * seq_len * head_dim * 4
        expected = n_layers * n_heads * head_bytes
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expected:
            raise TruncationError(f"payload is {size} bytes, header declares {expected}")
        data = np.empty((n_layers, n_heads, len(names), seq_len, head_dim), dtype="<f4")
        payload, fd = memoryview(data).cast("B"), fh.fileno()
        map_heads(lambda l, h: _read_span(fd, payload, (l * n_heads + h) * head_bytes, head_bytes), n_layers, n_heads)
        return KVBundle(**{name: data[:, :, slot] for slot, name in enumerate(names)})


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
    """Per-(layer, head) sorted token index sets to keep; each field is checked as load_plan checks a file's."""

    retained: tuple
    retention_target: Union[float, tuple]
    policy_name: str
    seed: Optional[int] = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        nested = (list, tuple, np.ndarray)
        if not isinstance(self.retained, nested) or not all(
            isinstance(layer, nested) and all(isinstance(head, nested) for head in layer) for layer in self.retained
        ):
            raise ParameterError("layers must be a list of layers, each a list of per-head index lists")
        if not isinstance(self.policy_name, str):
            raise ParameterError(f"policy_name must be a string, got {self.policy_name!r}")
        if self.seed is not None:
            _check_field("seed", self.seed, "int")
        if not isinstance(self.metadata, Mapping):
            raise ParameterError(f"metadata must be a mapping (a JSON object), got {type(self.metadata).__name__}")
        try:  # stored as the JSON it saves as, so that a saved plan loads back equal
            metadata = json.loads(_json_text(dict(self.metadata)))
        except (TypeError, ValueError) as exc:  # a value with no JSON form, or a circular reference
            raise ParameterError(f"metadata must be a JSON object of JSON values ({exc})") from exc
        layers = tuple(
            tuple(_index_tuple(head, f"layer {l} head {h}") for h, head in enumerate(layer))
            for l, layer in enumerate(self.retained)
        )
        if len(layers) < 1 or len(layers[0]) < 1:
            raise DataError("plan needs at least one layer and one head")
        if any(len(layer) != len(layers[0]) for layer in layers):
            raise DataError(f"plan layers must all have layer 0's {len(layers[0])} heads")
        targets = _rates(self.retention_target, DataError)
        if isinstance(targets, tuple) and len(targets) != len(layers):
            raise DataError(f"plan has {len(targets)} per-layer retention targets for {len(layers)} layers")
        object.__setattr__(self, "retention_target", targets)
        object.__setattr__(self, "retained", layers)
        object.__setattr__(self, "metadata", metadata)

    @property
    def n_layers(self) -> int:
        return len(self.retained)

    @property
    def n_kv_heads(self) -> int:
        return len(self.retained[0])


def _json_text(doc, indent=None) -> str:
    """The one JSON encoder of plans, plan metadata and models: numpy scalars come out as their numbers.

    Strict JSON: a NaN or infinity is a ValueError, not the bare token NaN or Infinity that strict parsers reject.
    One json.dumps call runs the C encoder when there is no indent (tuples come out as lists); a stream would not.
    """
    return json.dumps(doc, indent=indent, default=np.generic.item, allow_nan=False)


def _write_json(path, doc, indent=None) -> None:
    """The one writer of plans and models: _json_text(doc) as UTF-8 and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(doc, indent) + "\n")


def save_plan(plan: RetentionPlan, path) -> None:
    """Write a plan as a one-line JSON document; load_plan(save_plan(p)) == p."""
    doc = {
        "version": PLAN_VERSION,
        "retention_target": plan.retention_target,
        "policy_name": plan.policy_name,
        "seed": plan.seed,
        "layers": plan.retained,
        "metadata": plan.metadata,
    }
    _write_json(path, doc)


def _read_json(path, what: str, build):
    """build(doc) of the JSON object stored in a file: the one reader of plans, models and policies.

    A file that is not UTF-8 JSON or holds no object, a missing key, or a TypeError from `build` is a FormatError.
    """
    with _naming(path), open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise FormatError(f"not valid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise FormatError(f"expected a JSON object, got {type(doc).__name__}")
        try:
            return build(doc)
        except KeyError as exc:
            raise FormatError(f"missing {what} key {exc}") from exc
        except TypeError as exc:  # a field of the wrong JSON type, met before any check of it
            raise FormatError(f"malformed {what} ({exc})") from exc


def load_plan(path) -> RetentionPlan:
    """Read and invariant-check a plan file."""

    def build(doc):
        version = doc["version"]
        if type(version) is not int or version != PLAN_VERSION:  # JSON true and 1.0 equal 1 but are not version 1
            raise FormatError(f"unsupported plan version {version!r}")
        return RetentionPlan(
            retained=doc["layers"],
            retention_target=doc["retention_target"],
            policy_name=doc["policy_name"],
            seed=doc["seed"],
            metadata=doc.get("metadata", {}),
        )

    return _read_json(path, "plan", build)


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

    # outputs are allocated here, not in the workers, whose per-thread malloc arenas would keep them after use;
    # "clip" never clips, as every index was range-checked above, and unlike "raise" it writes straight into out
    d = bundle.head_dim
    out = {name: [[np.empty((i.size, d), np.float32) for i in picks] for picks in rows] for name, _ in _present(bundle)}

    def gather(l, h):  # every present tensor of head (l, h)
        for name, dst in out.items():
            np.take(getattr(bundle, name)[l][h], rows[l][h], axis=0, out=dst[l][h], mode="clip")

    map_heads(gather, bundle.n_layers, bundle.n_kv_heads)
    return KVBundle(**out)
