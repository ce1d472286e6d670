"""EMA vector quantization with straight-through gradients.

``quantize`` reads a channels-first (D, *spatial) map, the layout of
every other layer, as one token per voxel and snaps each token to its
nearest codebook entry (squared Euclidean distance, ties to the lowest
index). The codebook is not trained by gradient descent: assignment
counts and assigned-feature sums are tracked as exponential moving
averages and each entry is re-estimated as a Laplace-smoothed mean, so
empty clusters stay finite. The encoder side is trained by the
commitment term plus the straight-through estimator, whose backward
treats the quantizer as identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .gradcheck import cotangent
from .tensor import Tensor

DEFAULT_DECAY = 0.99
DEFAULT_LAPLACE_EPS = 1e-5
DEFAULT_COMMIT_WEIGHT = 0.25

_CHUNK = 128  # rows per distance block, bounds peak memory at K*D*_CHUNK


@dataclass
class Codebook:
    """K x D embedding table with EMA cluster statistics."""
    embeddings: np.ndarray       # (K, D)
    ema_cluster_size: np.ndarray  # (K,)
    ema_embed_sum: np.ndarray    # (K, D)
    initialized: bool = False    # flipped by init_from_batch

    @property
    def k(self) -> int:
        return self.embeddings.shape[0]

    @property
    def d(self) -> int:
        return self.embeddings.shape[1]


def make_codebook(rng: np.random.Generator, k: int, d: int) -> Codebook:
    if k < 1 or d < 1:
        raise ValueError("codebook needs k >= 1 entries of dim d >= 1")
    dtype = T.get_default_dtype()
    emb = rng.normal(0.0, 0.02, size=(k, d)).astype(dtype)
    return Codebook(embeddings=emb, ema_cluster_size=np.ones(k, dtype=dtype),
                    ema_embed_sum=emb.copy())


def init_from_batch(cb: Codebook, y: np.ndarray,
                    rng: np.random.Generator) -> None:
    """Seed entries from real feature rows so no code starts dead.

    Rows are drawn without replacement when the batch is large enough,
    with replacement plus small jitter otherwise, so no two entries
    start identical.
    """
    m = y.shape[0]
    if y.shape[1] != cb.d:
        raise ValueError("feature dim does not match codebook")
    if m >= cb.k:
        rows = y[rng.choice(m, size=cb.k, replace=False)]
    else:
        rows = y[rng.choice(m, size=cb.k, replace=True)]
        rows = rows + rng.normal(0.0, 1e-3, size=rows.shape)
    cb.embeddings = rows.astype(cb.embeddings.dtype)
    cb.ema_embed_sum = cb.embeddings.copy()
    cb.ema_cluster_size = np.ones(cb.k, dtype=cb.embeddings.dtype)
    cb.initialized = True


def nearest_indices(y: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """Row-wise argmin_k ||y_m - e_k||^2, first (lowest) index on ties."""
    m = y.shape[0]
    out = np.empty(m, dtype=np.int64)
    for start in range(0, m, _CHUNK):
        block = y[start:start + _CHUNK]
        d2 = ((block[:, None, :] - embeddings[None, :, :]) ** 2).sum(axis=2)
        out[start:start + _CHUNK] = np.argmin(d2, axis=1)
    return out


@dataclass
class QuantizeResult:
    quantized: Tensor      # the input's (D, *spatial) shape, STE backward
    indices: np.ndarray    # (M,), one per voxel in row-major order
    commit_loss: Tensor    # scalar, pulls the encoder toward its codes
    tokens: np.ndarray     # (M, D) voxel rows, the EMA step's batch


def quantize(feat: Tensor, cb: Codebook) -> QuantizeResult:
    """Snap each voxel's D-vector of feat (D, *spatial) to its nearest entry.

    The returned map carries the quantized values forward and passes
    gradients through unchanged (straight-through); commit_loss, the mean
    squared distance mean_m ||y_m - q_m||^2 of the voxel rows y to the
    (detached) chosen entries q, is one op whose backward is
    g_y = 2 g (y - q) / M.
    """
    if cb.k < 1:
        raise ValueError("empty codebook")
    if feat.ndim < 2 or feat.shape[0] != cb.d:
        raise ValueError(f"expected a ({cb.d}, *spatial) map, got {feat.shape}")
    y = np.ascontiguousarray(feat.data.reshape(cb.d, -1).T)
    idx = nearest_indices(y, cb.embeddings)
    q = cb.embeddings[idx].astype(y.dtype)

    # identity Jacobian: the quantizer is invisible to the backward pass
    q_ste = Tensor._make(q.T.reshape(feat.shape), (feat,), lambda g: (g,),
                         "vq_ste")
    diff = y - q
    commit = Tensor._make(
        (diff * diff).sum(axis=1).mean(), (feat,),
        lambda g: ((diff * (2.0 * g / len(diff))).T.reshape(feat.shape),),
        "vq_commit")
    return QuantizeResult(quantized=q_ste, indices=idx, commit_loss=commit,
                          tokens=y)


def ema_update(cb: Codebook, y: np.ndarray, indices: np.ndarray) -> Codebook:
    """One EMA step of cluster statistics; re-estimates all entries.

    n_k <- decay*n_k + (1-decay)*count(k)
    m_k <- decay*m_k + (1-decay)*sum of rows assigned to k
    e_k <- m_k / ((n_k + eps)/(sum_n + K*eps) * sum_n)

    with decay = DEFAULT_DECAY and eps = DEFAULT_LAPLACE_EPS.

    No gradients flow here; call it once per training step, after
    quantize, from a single writer.
    """
    y = np.asarray(y)
    counts = np.bincount(indices, minlength=cb.k).astype(cb.embeddings.dtype)
    sums = np.zeros_like(cb.ema_embed_sum)
    np.add.at(sums, indices, y)
    g = DEFAULT_DECAY
    cb.ema_cluster_size = g * cb.ema_cluster_size + (1.0 - g) * counts
    cb.ema_embed_sum = g * cb.ema_embed_sum + (1.0 - g) * sums
    total = cb.ema_cluster_size.sum()
    smoothed = ((cb.ema_cluster_size + DEFAULT_LAPLACE_EPS)
                / (total + cb.k * DEFAULT_LAPLACE_EPS) * total)
    cb.embeddings = cb.ema_embed_sum / smoothed[:, None]
    return cb


@dataclass
class SteReport:
    passed: bool
    max_abs_diff: float


def straight_through_check(y_values: np.ndarray, downstream,
                           cb: Codebook) -> SteReport:
    """Verify the quantizer's backward is exactly identity.

    Runs downstream(quantize(y)) for a map y and downstream(leaf holding
    the same quantized values), each seeded with the gradient checks'
    cotangent; the gradients reaching y and the leaf must match bit for bit.
    """
    y = Tensor(y_values, requires_grad=True, dtype=np.asarray(y_values).dtype)
    res = quantize(y, cb)
    out = downstream(res.quantized)
    out.backward(cotangent(out))

    bypass = Tensor(res.quantized.data.copy(), requires_grad=True,
                    dtype=res.quantized.data.dtype)
    out = downstream(bypass)
    out.backward(cotangent(out))

    same = (y.grad is not None and bypass.grad is not None
            and np.array_equal(y.grad, bypass.grad))
    diff = 0.0 if same else float(np.max(np.abs(y.grad - bypass.grad)))
    return SteReport(passed=same, max_abs_diff=diff)
