"""Output checks for one request, run outside its timed region.

The files are read here with the benchmark's own KVT1 reader, not the
library's loader, one (layer, head) block at a time so that checking does
not raise the worker's peak RSS.
"""

import hashlib
import json
import math
import struct

import numpy as np

_HEADER = struct.Struct("<4sIIIIB")


def read_header(path):
    """(n_layers, n_kv_heads, seq_len, head_dim, tensors per head) of a KVT1 file."""
    with open(path, "rb") as fh:
        magic, n_layers, n_heads, seq_len, head_dim, flags = _HEADER.unpack(fh.read(_HEADER.size))
    if magic != b"KVT1":
        raise ValueError(f"{path}: not a KVT1 file")
    return n_layers, n_heads, seq_len, head_dim, 2 + bin(flags & 0x03).count("1")


def expected_count(r: float, n: int) -> int:
    """max(1, ceil(r*N)), guarded against float residue as the README specifies."""
    return max(1, math.ceil(r * n - 1e-9))


def digest(layers) -> str:
    """sha256 of the retained indices, layer-major then head-major."""
    h = hashlib.sha256()
    for layer in layers:
        for idx in layer:
            arr = np.asarray(idx, dtype="<i8")
            h.update(struct.pack("<q", arr.size))
            h.update(arr.tobytes())
    return h.hexdigest()


def _blocks(path, header):
    """Yield the (tensors, seq_len, head_dim) float32 bit patterns of each head, in file order."""
    n_layers, n_heads, n, d, t = header
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        for _ in range(n_layers * n_heads):
            yield np.fromfile(fh, dtype="<u4", count=t * n * d).reshape(t, n, d)


def check_request(in_path, out_path, plan_path, r: float, needles) -> dict:
    """Check one request's plan and compacted file against its input.

    Returns ``errors`` (empty when every check passes), the index
    ``digest``, ``recall`` of the planted needles (1.0 when none were
    planted: no needle was lost) and the rows read and written.
    """
    with open(plan_path, encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    head_in = read_header(in_path)
    head_out = read_header(out_path)
    n_layers, n_heads, n, d, t = head_in
    k = expected_count(r, n)
    errors = []
    if head_out != (n_layers, n_heads, k, d, t):
        errors.append(f"output header {head_out}, expected {(n_layers, n_heads, k, d, t)}")
    if len(layers) != n_layers or any(len(layer) != n_heads for layer in layers):
        errors.append("plan layer/head structure differs from the bundle")
    if errors:
        return {"errors": errors, "digest": digest(layers), "recall": 0.0, "rows_in": 0, "rows_out": 0}

    needles = np.asarray(needles, dtype=np.int64)
    recalls = []
    heads = [np.asarray(idx, dtype=np.int64) for layer in layers for idx in layer]
    for i, (idx, src, dst) in enumerate(zip(heads, _blocks(in_path, head_in), _blocks(out_path, head_out))):
        where = f"layer {i // n_heads} head {i % n_heads}"
        if idx.size != k:
            errors.append(f"{where}: kept {idx.size} rows, expected {k}")
        elif idx[0] < 0 or idx[-1] >= n or (np.diff(idx) <= 0).any():
            errors.append(f"{where}: indices not strictly increasing within [0, {n})")
        elif not np.array_equal(src[:, idx], dst):
            errors.append(f"{where}: compacted rows differ from the input rows they index")
        recalls.append(np.isin(needles, idx).mean() if needles.size else 1.0)
    return {
        "errors": errors,
        "digest": digest(layers),
        "recall": float(np.mean(recalls)),
        "rows_in": n_layers * n_heads * n,
        "rows_out": int(sum(idx.size for idx in heads)),
    }
