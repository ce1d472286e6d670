"""Vector quantizer: assignment oracle, STE, EMA dynamics, clustering."""

import numpy as np
import pytest

from mortonseg import tensor as T
from mortonseg.rng import make_rng
from mortonseg.tensor import Tensor
from mortonseg.vq import (DEFAULT_DECAY, DEFAULT_LAPLACE_EPS, Codebook,
                          init_from_batch, make_codebook, nearest_indices,
                          quantize, ema_update, straight_through_check)


def brute_force_nn(y: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """All-pairs scalar loop; ties resolved to the lowest index."""
    out = []
    for row in y:
        dists = [float(((row - e) ** 2).sum()) for e in emb]
        best = 0
        for k in range(1, len(dists)):
            if dists[k] < dists[best]:
                best = k
        out.append(best)
    return np.array(out, dtype=np.int64)


def f64_codebook(rng, k, d) -> Codebook:
    with T.default_dtype(np.float64):
        return make_codebook(rng, k, d)


def fresh_codebook(rng, k, d) -> Codebook:
    cb = f64_codebook(rng, k, d)
    cb.initialized = True
    return cb


# -- assignment ---------------------------------------------------------------


def test_two_entry_scalar_assignment():
    cb = fresh_codebook(make_rng(61), 2, 1)
    cb.embeddings = np.array([[-1.0], [1.0]])
    res = quantize(Tensor([[0.2]], dtype=np.float64), cb)
    assert res.indices.tolist() == [1]
    assert res.quantized.data.tolist() == [[1.0]]
    assert np.isclose(float(res.commit_loss.data), 0.64, rtol=0, atol=1e-12)


def test_exact_entry_is_fixed_point():
    rng = make_rng(62)
    cb = fresh_codebook(rng, 5, 3)
    y = Tensor(cb.embeddings[3:4].T, dtype=np.float64)
    res = quantize(y, cb)
    assert res.indices.tolist() == [3]
    assert np.array_equal(res.quantized.data, cb.embeddings[3:4].T)
    assert float(res.commit_loss.data) == 0.0


def test_assignments_match_exhaustive_oracle():
    rng = make_rng(63)
    cb = fresh_codebook(rng, 7, 4)
    y = rng.normal(0, 0.05, (40, 4))   # same scale as the embeddings
    assert np.array_equal(nearest_indices(y, cb.embeddings),
                          brute_force_nn(y, cb.embeddings))


def test_assignments_match_oracle_across_chunks():
    # more rows than the internal chunk size
    rng = make_rng(64)
    cb = fresh_codebook(rng, 5, 3)
    y = rng.normal(0, 0.05, (300, 3))
    assert np.array_equal(nearest_indices(y, cb.embeddings),
                          brute_force_nn(y, cb.embeddings))


def test_tie_goes_to_lowest_index():
    cb = fresh_codebook(make_rng(65), 2, 1)
    cb.embeddings = np.array([[1.0], [-1.0]])
    res = quantize(Tensor([[0.0]], dtype=np.float64), cb)
    assert res.indices.tolist() == [0]


def test_quantize_rejects_bad_shapes():
    cb = fresh_codebook(make_rng(66), 3, 2)
    with pytest.raises(ValueError):
        quantize(Tensor(np.zeros((4, 3)).T), cb)
    with pytest.raises(ValueError):
        quantize(Tensor(np.zeros(4)), cb)


def test_commit_loss_nonnegative_and_zero_only_at_entries():
    rng = make_rng(67)
    cb = fresh_codebook(rng, 4, 2)
    on = Tensor(cb.embeddings[[1, 3]].T, dtype=np.float64)
    off = Tensor((cb.embeddings[[1, 3]] + 0.01).T, dtype=np.float64)
    assert float(quantize(on, cb).commit_loss.data) == 0.0
    assert float(quantize(off, cb).commit_loss.data) > 0.0


def test_commit_gradient_is_pull_toward_code():
    # d/dy mean ||y - sg(q)||^2 = 2 (y - q) / M, assignments frozen
    rng = make_rng(68)
    cb = fresh_codebook(rng, 3, 2)
    y = Tensor((cb.embeddings[[0, 2]] + 0.003).T, requires_grad=True,
               dtype=np.float64)
    res = quantize(y, cb)
    res.commit_loss.backward()
    expect = 2.0 * (y.data - cb.embeddings[res.indices].T) / 2.0
    assert np.allclose(y.grad, expect, rtol=1e-12, atol=0)


def token_path(feat, emb, g_map, g_commit):
    """The rows-first path in numpy: reshape and transpose to (M, D)
    token rows, quantize the rows, and transpose and reshape back; each
    adjoint undoes its shape step. Returns the quantized map, indices,
    commitment and the gradients reaching feat through each output."""
    d = feat.shape[0]
    rows = np.ascontiguousarray(feat.reshape(d, -1).T)
    idx = nearest_indices(rows, emb)
    q = emb[idx].astype(feat.dtype)
    qmap = np.ascontiguousarray(q.T).reshape(feat.shape)
    diff = rows - q
    commit = (diff * diff).sum(axis=1).mean()

    def to_map(g_rows):
        return np.ascontiguousarray(g_rows.T).reshape(feat.shape)

    g_ste = to_map(np.ascontiguousarray(g_map.reshape(d, -1).T))
    g_cm = to_map(diff * (2.0 * g_commit / len(diff)))
    return qmap, idx, commit, g_ste, g_cm


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_map_quantize_matches_the_token_path_bit_for_bit(dtype):
    rng = make_rng(72)
    with T.default_dtype(dtype):
        cb = make_codebook(rng, 6, 5)
    feat_np = rng.normal(0, 0.05, (5, 2, 3, 4)).astype(dtype)
    g_map = rng.normal(0, 1, feat_np.shape).astype(dtype)
    g_commit = dtype(0.7)
    want = token_path(feat_np, cb.embeddings, g_map, g_commit)

    feat = Tensor(feat_np, requires_grad=True, dtype=dtype)
    res = quantize(feat, cb)
    res.quantized.backward(g_map)
    g_ste = feat.grad
    feat.zero_grad()
    res.commit_loss.backward(g_commit)
    got = (res.quantized.data, res.indices, res.commit_loss.data, g_ste,
           feat.grad)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(res.tokens, feat_np.reshape(5, -1).T)


# -- straight-through ---------------------------------------------------------


def test_ste_forward_emits_codebook_rows_exactly():
    rng = make_rng(69)
    cb = fresh_codebook(rng, 6, 3)
    y = Tensor(rng.normal(0, 0.05, (10, 3)).T, dtype=np.float64)
    res = quantize(y, cb)
    assert np.array_equal(res.quantized.data, cb.embeddings[res.indices].T)


def test_ste_backward_is_identity_bit_exact():
    rng = make_rng(70)
    cb = fresh_codebook(rng, 5, 4)
    y = Tensor(rng.normal(0, 0.05, (12, 4)).T, requires_grad=True,
               dtype=np.float64)
    res = quantize(y, cb)
    seed = rng.normal(0, 1, (12, 4)).T
    res.quantized.backward(seed)
    assert np.array_equal(y.grad, seed)


def test_straight_through_check_nontrivial_downstream():
    rng = make_rng(71)
    cb = fresh_codebook(rng, 4, 3)

    def downstream(q):  # q reaches the output twice, once flipped
        return T.add(T.silu(q), T.flip(q, 0))

    rep = straight_through_check(rng.normal(0, 0.05, (9, 3)).T, downstream,
                                 cb)
    assert rep.passed
    assert rep.max_abs_diff == 0.0


# -- EMA updates --------------------------------------------------------------


def test_unassigned_cluster_size_decays():
    rng = make_rng(73)
    cb = fresh_codebook(rng, 3, 2)
    before = cb.ema_cluster_size.copy()
    y = rng.normal(0, 1, (10, 2))
    ema_update(cb, y, np.zeros(10, dtype=np.int64))
    assert np.isclose(cb.ema_cluster_size[1], DEFAULT_DECAY * before[1])
    assert np.isclose(cb.ema_cluster_size[2], DEFAULT_DECAY * before[2])
    assert cb.ema_cluster_size[0] > before[0]


def test_ema_formula_single_step():
    g, eps = DEFAULT_DECAY, DEFAULT_LAPLACE_EPS
    cb = fresh_codebook(make_rng(74), 2, 1)
    cb.ema_cluster_size = np.array([1.0, 1.0])
    cb.ema_embed_sum = np.array([[2.0], [-2.0]])
    y = np.array([[4.0], [6.0]])
    ema_update(cb, y, np.array([0, 0]))
    n = np.array([g * 1 + (1 - g) * 2, g * 1])         # counts: 2, 0
    m = np.array([[g * 2 + (1 - g) * 10], [g * -2]])   # row sums: 10, 0
    total = n.sum()
    smoothed = (n + eps) / (total + 2 * eps) * total
    assert np.allclose(cb.ema_cluster_size, n, rtol=1e-12)
    assert np.allclose(cb.ema_embed_sum, m, rtol=1e-12)
    assert np.allclose(cb.embeddings, m / smoothed[:, None], rtol=1e-12)


def test_ema_recovers_three_clusters():
    # separated Gaussians at simplex corners; entries within 0.05 of the
    # true means in at most 200 updates
    rng = make_rng(75)
    means = np.eye(3)
    cb = f64_codebook(rng, 3, 3)

    def draw(n):
        comp = rng.integers(0, 3, n)
        return means[comp] + rng.normal(0, 0.05, (n, 3))

    init_from_batch(cb, draw(60), rng)
    for _ in range(200):
        y = draw(60)
        ema_update(cb, y, nearest_indices(y, cb.embeddings))
    # match each true mean to its closest entry; all within 0.05, all distinct
    picks = [int(np.argmin(((cb.embeddings - m) ** 2).sum(axis=1)))
             for m in means]
    assert sorted(picks) == [0, 1, 2]
    for m, k in zip(means, picks):
        assert np.linalg.norm(cb.embeddings[k] - m) < 0.05


# -- initialization -----------------------------------------------------------


def test_init_from_large_batch_uses_rows_verbatim():
    rng = make_rng(76)
    cb = f64_codebook(rng, 4, 2)
    y = rng.normal(0, 1, (50, 2))
    init_from_batch(cb, y, rng)
    assert cb.initialized
    rows = {tuple(r) for r in np.round(y, 12)}
    for e in np.round(cb.embeddings, 12):
        assert tuple(e) in rows
    # no duplicates when drawn without replacement
    assert len({tuple(e) for e in cb.embeddings}) == 4


def test_init_from_small_batch_jitters_duplicates():
    rng = make_rng(77)
    cb = f64_codebook(rng, 8, 2)
    y = rng.normal(0, 1, (3, 2))
    init_from_batch(cb, y, rng)
    assert len({tuple(e) for e in cb.embeddings}) == 8
    d = ((cb.embeddings[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    assert np.all(d.min(axis=1) < 1e-4)    # every entry near a real row


def test_init_rejects_dim_mismatch():
    rng = make_rng(78)
    cb = f64_codebook(rng, 4, 3)
    with pytest.raises(ValueError):
        init_from_batch(cb, rng.normal(0, 1, (10, 2)), rng)


def test_make_codebook_validates():
    with pytest.raises(ValueError):
        make_codebook(make_rng(79), 0, 4)
    with pytest.raises(ValueError):
        make_codebook(make_rng(79), 4, 0)
