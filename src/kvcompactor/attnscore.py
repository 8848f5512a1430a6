"""Task-driven attention importance scores.

The query-agnostic score of a token is how much attention it receives from
every position when the causal mask is dropped: the column sums of
softmax(scale * Q K^T). Materializing the full N x N attention matrix is
prohibitive, so the context is split into blocks of ``chunk_size`` and each
block's square attention is scored independently (the final block may be
shorter). Two query-aware baselines are provided for comparison: column
sums of the causally masked softmax over all queries, and over only the
last ``baseline_window`` queries.

Precision follows the inputs, with no option: when Q and K are both
float32 (every bundle, since KVT1 stores float32), the logits GEMM, the
scale, the max-subtraction, exp and the row normalization run in float32;
any other pair is scored in float64. Either way the softmax row sums and
the per-token scores are accumulated in float64.

The non-causal chunks are scored in batches of full chunks of at most
``_CHUNK_BATCH_BYTES`` of logits, then the short last chunk, if any, as a
batch of one: each batch is one batched GEMM into the same buffer,
allocated per call at the largest batch's size, and its reductions run
along the same axes, in the same order, as one chunk's, so the scores are
those of a chunk-by-chunk loop bit for bit. The causal baselines score
query rows [s, e) against only the e keys those rows can see, in blocks of
at most ``_LOGITS_BYTES`` of logits, so that block does not grow with N.
Every causal block of a head is computed into one buffer of the largest
block's size, mapped for the call and unmapped on return.

Memory budget. The package's scoring memory is stated here and in one
README paragraph; other modules point here. Heads are scored on a pool
(see ``_pool``), one head at a time per worker, so the budget is one
head's working set per worker. That is O(N) float64 score vectors, copies
of Q and K only when they are not already C-contiguous in the scoring
dtype (a bundle's heads never are copied), and the larger of two terms,
as the first is freed before the second is allocated:

- leverage (``leverage.approx_leverage``, for the compactor and
  leverage_only policies): N * k * 16 bytes for a sketch of k columns
  (k = d under kind "none"), the float64 copy of the sketch and the
  float64 basis; a float32 sketch is freed as it is copied;
- attention: each call computes every logits block into one buffer in
  the scoring dtype, of at most ``_CHUNK_BATCH_BYTES`` for non-causal
  chunks (2 MiB, or one chunk_size^2 chunk when that is larger), or for
  h2o and snapkv of at most ``_LOGITS_BYTES`` (4 MiB; baseline_window x N
  while that fits, or one row when a row is larger); a causal block adds
  a boolean mask of at most a quarter of its size.

Mean pooling (centered moving average, edge-truncated) and value-norm
scaling are separate steps so callers control the post-processing order;
the bundled eviction pipeline pools first, then scales.
"""

import math
import mmap
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, _check_field, _check_matrix
from .kvstore import ScoreVector

_LOGITS_BYTES = 4 << 20  # bytes of logits, in the input dtype, per causal row block
_CHUNK_BATCH_BYTES = 2 << 20  # bytes of logits, in the input dtype, per batch of full non-causal chunks


@dataclass(frozen=True)
class AttnScoreConfig:
    """Knobs for the attention-score family.

    ``scale=None`` means the conventional 1/sqrt(d); pass 1.0 for the
    unscaled form. ``snap_keep_window=True`` makes the eviction pipeline
    force-retain the final ``baseline_window`` tokens under the snapkv
    policy, mirroring that method's always-kept observation window.
    """

    chunk_size: int = 256
    pool_window: int = 7
    scale: Optional[float] = None
    value_norm: bool = True
    baseline_window: int = 32
    snap_keep_window: bool = True

    def __post_init__(self):
        _check_field("chunk_size", self.chunk_size, "int", "[1, inf)")
        _check_field("pool_window", self.pool_window, "int", "[1, inf)")
        if self.pool_window % 2 == 0:
            raise ParameterError(f"pool_window must be odd, got {self.pool_window}")
        if self.scale is not None:
            _check_field("scale", self.scale, "real")
        _check_field("value_norm", self.value_norm, "bool")
        _check_field("baseline_window", self.baseline_window, "int", "[1, inf)")
        _check_field("snap_keep_window", self.snap_keep_window, "bool")


def _check_pair(Q, K):
    """Q and K as C-contiguous arrays of one dtype: float32 if both are float32, else float64."""
    Q, K = _check_matrix("Q", Q), _check_matrix("K", K)
    if Q.shape != K.shape:
        raise ParameterError(f"Q and K must share one (N, d) shape, got {Q.shape} and {K.shape}")
    dtype = np.float32 if Q.dtype == K.dtype == np.float32 else np.float64
    return np.ascontiguousarray(Q, dtype=dtype), np.ascontiguousarray(K, dtype=dtype)


def _scale(cfg: AttnScoreConfig, d: int) -> float:
    return 1.0 / math.sqrt(d) if cfg.scale is None else float(cfg.scale)


def _softmax_colsum(logits, out):
    """Accumulate the column sums of the row-softmax of ``logits`` into float64 ``out``; overwrites ``logits``.

    ``logits`` is one (rows, cols) block, or a (batch, rows, cols) stack of
    them scored independently; ``out`` has its shape without the rows axis.
    exp and the division run in the logits' dtype; the row and column sums
    are accumulated in float64 without a float64 copy of the block.
    """
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True, dtype=np.float64).astype(logits.dtype)
    out += logits.sum(axis=-2, dtype=np.float64)


def _causal_scores(Q, K, cfg: AttnScoreConfig, start: int) -> ScoreVector:
    """Causal attention accumulated over query rows start..N-1, in row blocks of at most _LOGITS_BYTES."""
    n = Q.shape[0]
    scale = _scale(cfg, Q.shape[1])
    rows = max(1, _LOGITS_BYTES // (Q.itemsize * n))
    out = np.zeros(n)
    # one buffer for every block, as blocks grow with e; mapped, not malloc'd, because a pool worker's malloc
    # arena would keep a freed block of this size, and the mapping is released when the call returns
    count = min(rows, n - start) * n
    buf = np.frombuffer(mmap.mmap(-1, count * Q.itemsize), Q.dtype, count)
    # query s + i sees keys 0..s + i; the mask is at most a quarter of the budget (rows, m <= n, itemsize >= 4)
    ramp = np.arange(min(rows, n - start))
    upper = ramp[:, None] < ramp
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing logits are reported by ScoreVector
        for s in range(start, n, rows):
            e = min(s + rows, n)
            logits = np.matmul(Q[s:e], K[:e].T, out=buf[: (e - s) * e].reshape(e - s, e))
            logits *= scale
            np.copyto(logits[:, s:], -np.inf, where=upper[: e - s, : e - s])
            _softmax_colsum(logits, out[:e])
    return ScoreVector(out)


def noncausal_scores(Q: np.ndarray, K: np.ndarray, cfg: AttnScoreConfig = AttnScoreConfig()) -> ScoreVector:
    """Chunked non-causal attention received per token.

    Concatenates, over blocks of cfg.chunk_size, the column sums of the
    row-softmaxed block attention. Each softmax row sums to one, so every
    block's scores total its length.
    """
    Q, K = _check_pair(Q, K)
    (n, d), c = Q.shape, cfg.chunk_size
    scale = _scale(cfg, d)
    out = np.zeros(n)
    full, tail = divmod(n, c)
    per = max(1, _CHUNK_BATCH_BYTES // (Q.itemsize * c * c))  # full chunks per batch
    # (first row, chunks, rows per chunk) per step: batches of full chunks, then the short last chunk as a batch of one
    steps = [(b * c, min(per, full - b), c) for b in range(0, full, per)]
    if tail:
        steps.append((full * c, 1, tail))
    # one buffer for the largest step, malloc'd: mapping it afresh for every small head costs more than batching saves
    buf = np.empty(max(min(per, full) * c * c, tail * tail), Q.dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing logits are reported by ScoreVector
        for s, m, r in steps:
            e = s + m * r
            Kt = K[s:e].reshape(m, r, d).transpose(0, 2, 1)
            logits = np.matmul(Q[s:e].reshape(m, r, d), Kt, out=buf[: m * r * r].reshape(m, r, r))
            logits *= scale
            _softmax_colsum(logits, out[s:e].reshape(m, r))
    return ScoreVector(out)


def h2o_scores(Q: np.ndarray, K: np.ndarray, cfg: AttnScoreConfig = AttnScoreConfig()) -> ScoreVector:
    """Causal attention accumulated over all queries.

    Query rows are scored in blocks against only the keys they can see: the
    working memory is one logits block of at most _LOGITS_BYTES in the
    scoring dtype (at least one row) and O(N) float64 vectors, whatever N is.
    """
    Q, K = _check_pair(Q, K)
    return _causal_scores(Q, K, cfg, 0)


def snapkv_scores(Q: np.ndarray, K: np.ndarray, cfg: AttnScoreConfig = AttnScoreConfig()) -> ScoreVector:
    """Causal attention accumulated over only the last cfg.baseline_window queries."""
    Q, K = _check_pair(Q, K)
    n = Q.shape[0]
    w = cfg.baseline_window
    if w > n:
        raise ParameterError(f"baseline_window {w} exceeds sequence length {n}")
    return _causal_scores(Q, K, cfg, n - w)


def mean_pool(scores: ScoreVector, window: int) -> ScoreVector:
    """Centered moving average with edge truncation; length preserved."""
    _check_field("window", window, "int", "[1, inf)")
    if window % 2 == 0:
        raise ParameterError(f"window must be odd, got {window}")
    if window == 1:
        return scores
    v = scores.scores
    n = v.shape[0]
    half = min(window // 2, n)  # any half >= n averages the whole vector; the clamp keeps a huge window in int64
    csum = np.concatenate(([0.0], np.cumsum(v)))
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return ScoreVector((csum[hi] - csum[lo]) / (hi - lo))


def value_norm_scale(scores: ScoreVector, V: np.ndarray) -> ScoreVector:
    """Scale each token's score by the Euclidean norm of its value row."""
    V = _check_matrix("V", V)
    if V.shape[0] != len(scores):
        raise ParameterError(f"values shape {V.shape} does not match {len(scores)} scores")
    norms = np.sqrt(np.einsum("ij,ij->i", V, V, dtype=np.float64))
    return ScoreVector(scores.scores * norms)
