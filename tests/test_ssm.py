"""Selective scan: fused recurrence, scan oracle, duality, fusion."""

import numpy as np
import pytest

from mortonseg import tensor as T
from mortonseg.gradcheck import check_gradients
from mortonseg.morton import build_permutation, gather_sequence, scatter_back
from mortonseg.rng import make_rng
from mortonseg.ssm import (SCAN_CHUNK, ScanParams, bidir_scan_block,
                           gated_fusion, init_ssm_params, linear_recurrence,
                           selective_scan)
from mortonseg.tensor import NumericalError, Tensor


def f64_params(rng, e, n):
    with T.default_dtype(np.float64):
        return init_ssm_params(rng, e, n)


def rand_seq(rng, ln, e):
    return Tensor(rng.normal(0, 1, (ln, e)), dtype=np.float64)


def naive_scan_oracle(seq: np.ndarray, p: ScanParams) -> np.ndarray:
    """Straight-line scalar-loop reference for one forward scan."""
    ln, e = seq.shape
    n = p.a_log.shape[1]
    a = -np.exp(p.a_log.data)
    d = p.d_skip.data
    y = np.zeros((ln, e))
    h = np.zeros((e, n))
    for k in range(ln):
        pre = seq[k] @ p.w_delta.data + p.b_delta.data
        delta = np.log1p(np.exp(pre))                    # softplus
        bk = seq[k] @ p.w_b.data
        ck = seq[k] @ p.w_c.data
        for ei in range(e):
            for ni in range(n):
                abar = np.exp(delta[ei] * a[ei, ni])
                bbar = delta[ei] * bk[ni]
                h[ei, ni] = abar * h[ei, ni] + bbar * seq[k, ei]
            y[k, ei] = float(ck @ h[ei]) + d[ei] * seq[k, ei]
    return y


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64), dtype=np.float64)


def recurrence_inputs(rng, ln, e, n):
    """delta (L,E,1), a (1,E,N), b (L,1,N), s (L,E,1), c (L,N) in float64."""
    return (t64(rng.uniform(0.1, 1.0, (ln, e, 1))),
            t64(-np.exp(rng.normal(0, 1, (1, e, n)))),
            t64(rng.normal(0, 1, (ln, 1, n))),
            t64(rng.normal(0, 1, (ln, e, 1))), t64(rng.normal(0, 1, (ln, n))))


def held_arrays(fn):
    """Base buffers of the arrays a closure holds, nested closures included."""
    out, todo = {}, [fn]
    while todo:
        for cell in todo.pop().__closure__ or ():
            try:
                v = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if isinstance(v, np.ndarray):
                while isinstance(v.base, np.ndarray):
                    v = v.base
                out[id(v)] = v
            elif callable(v) and getattr(v, "__closure__", None):
                todo.append(v)
    return list(out.values())


# -- fused recurrence ---------------------------------------------------------


def test_recurrence_one_token_closed_form():
    # y = c . (delta * b * s), with delta = log 2, b = 2, s = 1.5, c = 0.5
    y = linear_recurrence(t64([[[np.log(2.0)]]]), t64([[[-1.0]]]),
                          t64([[[2.0]]]), t64([[[1.5]]]), t64([[0.5]]))
    assert np.allclose(y.data, [[1.5 * np.log(2.0)]], rtol=1e-15, atol=0)


def test_recurrence_two_tokens_expose_exp_decay():
    # token 1 has no input, so y_1 = c_1 . (exp(delta_1 a) * h_0)
    y = linear_recurrence(t64([[[1.0]], [[np.log(2.0)]]]), t64([[[-1.0]]]),
                          t64([[[2.0]], [[5.0]]]), t64([[[3.0]], [[0.0]]]),
                          t64([[1.0], [1.0]]))
    assert np.allclose(y.data, [[6.0], [3.0]], rtol=0, atol=1e-15)
    rng = make_rng(41)
    delta, a, b, s, c = recurrence_inputs(rng, 2, 3, 4)
    s.data[1] = 0.0
    y = linear_recurrence(delta, a, b, s, c).data
    d, av, bv, sv, cv = (t.data for t in (delta, a, b, s, c))
    for ei in range(3):
        expect = sum(float(cv[1, ni])
                     * np.exp(float(d[1, ei, 0]) * float(av[0, ei, ni]))
                     * float(d[0, ei, 0] * bv[0, 0, ni] * sv[0, ei, 0])
                     for ni in range(4))
        assert np.isclose(y[1, ei], expect, rtol=1e-12, atol=0)


def test_recurrence_small_delta_limit():
    # after token 0, delta -> 0 freezes the state: abar -> 1, input -> 0
    rng = make_rng(42)
    delta, a, b, s, c = recurrence_inputs(rng, 4, 2, 3)
    delta.data[1:] = 1e-12
    y = linear_recurrence(delta, a, b, s, c).data
    h0 = delta.data[0] * b.data[0] * s.data[0]  # (E, N)
    for k in range(1, 4):
        assert np.allclose(y[k], h0 @ c.data[k], rtol=0, atol=1e-10)


def test_recurrence_rejects_nonfinite_delta():
    rng = make_rng(43)
    for bad in (np.nan, np.inf):
        delta, a, b, s, c = recurrence_inputs(rng, 3, 2, 2)
        delta.data[1, 0, 0] = bad
        with pytest.raises(NumericalError):
            linear_recurrence(delta, a, b, s, c)
    delta, a, b, s, c = recurrence_inputs(rng, 3, 2, 2)
    delta.data[:] = 0.0  # a frozen step is no error
    assert np.array_equal(linear_recurrence(delta, a, b, s, c).data,
                          np.zeros((3, 2)))


def test_scan_delta_underflow_leaves_only_skip_path():
    # float32 softplus(-200) is exactly 0, so no state is ever written
    rng = make_rng(44)
    with T.default_dtype(np.float32):
        p = init_ssm_params(rng, 3, 2).scan
    p.w_delta.data[:] = 0.0
    p.b_delta.data[:] = -200.0
    seq = Tensor(rng.normal(0, 1, (7, 3)), dtype=np.float32)
    out = selective_scan(seq, p, "forward")
    assert np.array_equal(out.data, p.d_skip.data * seq.data)


def test_recurrence_tape_holds_no_full_state():
    rng = make_rng(45)
    ln, e, n = 2 * SCAN_CHUNK + 5, 4, 3
    p = f64_params(rng, e, n).scan
    seq = Tensor(rng.normal(0, 1, (ln, e)), requires_grad=True,
                 dtype=np.float64)
    node = selective_scan(seq, p, "forward")
    held = held_arrays(node._backward_fn) + [q.data for q in node._parents]
    # the recurrence's adjoint is reached: its per-chunk entry states
    assert any(a.shape == (3, n, e) for a in held)
    assert max(a.size for a in held) < ln * e * n


# -- recurrence and scan ------------------------------------------------------


def test_scan_matches_naive_loop_oracle():
    rng = make_rng(42)
    p = f64_params(rng, 2, 3).scan
    seq = rand_seq(rng, 6, 2)
    out = selective_scan(seq, p, "forward")
    assert np.allclose(out.data, naive_scan_oracle(seq.data, p),
                       rtol=1e-10, atol=1e-12)


def test_scan_matches_oracle_across_chunks():
    # two full chunks and a short one: the state crosses both boundaries
    rng = make_rng(60)
    p = f64_params(rng, 2, 3).scan
    seq = rand_seq(rng, 2 * SCAN_CHUNK + 5, 2)
    out = selective_scan(seq, p, "forward")
    assert np.allclose(out.data, naive_scan_oracle(seq.data, p),
                       rtol=1e-10, atol=1e-12)


def test_scan_oracle_without_d_skip():
    rng = make_rng(43)
    p = f64_params(rng, 3, 2).scan
    p.d_skip.data[:] = 0.0
    seq = rand_seq(rng, 5, 3)
    out = selective_scan(seq, p, "forward")
    assert np.allclose(out.data, naive_scan_oracle(seq.data, p),
                       rtol=1e-10, atol=1e-12)


def test_scan_single_step_closed_form():
    rng = make_rng(44)
    p = f64_params(rng, 2, 3).scan
    seq = rand_seq(rng, 1, 2)
    out = selective_scan(seq, p, "forward")
    s = seq.data[0]
    pre = s @ p.w_delta.data + p.b_delta.data
    delta = np.log1p(np.exp(pre))
    bk = s @ p.w_b.data
    ck = s @ p.w_c.data
    a = -np.exp(p.a_log.data)
    expect = np.array([
        float(ck @ (delta[e] * bk * s[e])) + p.d_skip.data[e] * s[e]
        for e in range(2)])
    assert np.allclose(out.data[0], expect, rtol=1e-12)


def test_scan_memoryless_when_decay_saturates():
    # huge negative A forces abar ~ 0: each step sees only its own input
    rng = make_rng(45)
    p = f64_params(rng, 2, 2).scan
    p.a_log.data = np.full((2, 2), 8.0)   # A = -exp(8) ~ -2981
    seq = rand_seq(rng, 7, 2)
    full = selective_scan(seq, p, "forward").data
    for k in range(7):
        alone = selective_scan(Tensor(seq.data[k:k + 1].copy(),
                                      dtype=np.float64), p, "forward").data
        assert np.allclose(full[k], alone[0], rtol=1e-12, atol=1e-12)


def test_scan_rejects_bad_input():
    rng = make_rng(46)
    p = f64_params(rng, 2, 2).scan
    with pytest.raises(ValueError):
        selective_scan(Tensor(np.zeros((0, 2))), p)
    with pytest.raises(ValueError):
        selective_scan(Tensor(np.zeros(4)), p)
    with pytest.raises(ValueError):
        selective_scan(rand_seq(make_rng(0), 3, 2), p, "sideways")


def test_reverse_duality_bit_exact():
    # reverse := Flip(scan(Flip(s))) with shared parameters, 20 sequences
    rng = make_rng(47)
    p = f64_params(rng, 3, 2).scan
    for trial in range(20):
        seq = rand_seq(make_rng(47, trial), int(rng.integers(1, 9)), 3)
        rev = selective_scan(seq, p, "reverse").data
        manual = np.flip(selective_scan(T.flip(seq, 0), p, "forward").data, 0)
        assert np.array_equal(rev, manual)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reverse_scan_op_is_flip_scan_flip_bit_for_bit(dtype):
    # output and all seven gradients, across two full chunks and a short one
    rng = make_rng(60)
    ln, e = 2 * SCAN_CHUNK + 5, 4
    with T.default_dtype(dtype):
        p = init_ssm_params(rng, e, 3).scan
        seq = Tensor(rng.normal(0, 1, (ln, e)), requires_grad=True)
    g = rng.normal(0, 1, (ln, e)).astype(dtype)
    leaves = [seq] + p.tensors()

    def run(fn):
        for t in leaves:
            t.grad = None
        y = fn()
        y.backward(g)
        return [y.data] + [t.grad for t in leaves]

    got = run(lambda: selective_scan(seq, p, "reverse"))
    want = run(lambda: T.flip(selective_scan(T.flip(seq, 0), p, "forward"),
                              0))
    for a, b in zip(got, want):
        assert a.dtype == dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def block_tape(feat, p, perm):
    """Every op node of a bidir_scan_block forward, with its output."""
    out = bidir_scan_block(feat, p, perm)
    nodes, seen, stack = [], set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return out, nodes


def test_scan_block_records_no_flip():
    p = init_ssm_params(make_rng(61), 3, 2)
    feat = Tensor(make_rng(61, 1).normal(0, 1, (3, 2, 3, 2)),
                  requires_grad=True)
    _, nodes = block_tape(feat, p, build_permutation((2, 3, 2)))
    ops = [n.op for n in nodes]
    assert "flip" not in ops and ops.count("selective_scan") == 2


def test_scan_block_closures_keep_no_sequence_copies():
    # an (L, E) array a closure holds is a tape tensor's data, except each
    # scan's step sizes delta and the reverse scan's flipped input
    rng = make_rng(62)
    e, grid = 4, (4, 4, 5)
    ln = int(np.prod(grid))
    p = f64_params(rng, e, 3)
    feat = Tensor(rng.normal(0, 1, (e, *grid)), requires_grad=True,
                  dtype=np.float64)
    _, nodes = block_tape(feat, p, build_permutation(grid))
    on_tape = set()
    for t in nodes + p.tensors():
        base = t.data
        while isinstance(base.base, np.ndarray):
            base = base.base
        on_tape.add(id(base))
    extra = {}
    for node in nodes:
        if node._backward_fn is None:
            continue
        big = [a for a in held_arrays(node._backward_fn)
               if a.size >= ln * e and id(a) not in on_tape]
        if big:
            extra.setdefault(node.op, []).append(big)
    assert list(extra) == ["selective_scan"]
    assert sorted(len(big) for big in extra["selective_scan"]) == [1, 2]
    assert all(a.shape == (ln, e) for big in extra["selective_scan"]
               for a in big)
    scan_in = [n for n in nodes if n.op == "silu"][0].data
    rev = max(extra["selective_scan"], key=len)
    assert sum(np.array_equal(a, scan_in[::-1]) for a in rev) == 1


def test_recurrence_stability_long_sequence():
    rng = make_rng(48)
    p = f64_params(rng, 2, 3).scan
    seq = Tensor(np.clip(rng.normal(0, 1, (10_000, 2)), -3, 3),
                 dtype=np.float64)
    out = selective_scan(seq, p, "forward")
    assert np.all(np.isfinite(out.data))
    assert np.abs(out.data).max() < 1e6


def test_scan_gradients_match_fd():
    rng = make_rng(49)
    p = f64_params(rng, 2, 3).scan
    seq = Tensor(make_rng(49, 1).normal(0, 1, (6, 2)), requires_grad=True,
                 dtype=np.float64)

    def fn(*_):
        return selective_scan(seq, p, "forward")

    res = check_gradients(fn, p.tensors() + [seq], name="selective_scan")
    assert res.passed, str(res)
    assert res.max_rel_error < 1e-4


def chained_scan(x, p, g):
    """The scan as the composed chain ran it, with that chain's adjoints.

    Forward: the numpy expressions of matmul, add, softplus, neg(exp),
    the recurrence and the D skip, in the chain's order. Backward: each
    op's adjoint in reverse; the recurrence's comes from the op itself.
    Returns (y, gradients of seq and of p.tensors() for the seed g).
    """
    ln, e = x.shape
    n = p.a_log.shape[1]
    wd, wb, wc = p.w_delta.data, p.w_b.data, p.w_c.data
    u = x @ wd + p.b_delta.data
    expa = np.exp(p.a_log.data)
    leaves = [Tensor(v, requires_grad=True, dtype=x.dtype) for v in (
        np.logaddexp(0.0, u).reshape(ln, e, 1), (-expa).reshape(1, e, n),
        (x @ wb).reshape(ln, 1, n), x.reshape(ln, e, 1), x @ wc)]
    rec = linear_recurrence(*leaves)
    y = rec.data + x * p.d_skip.data
    rec.backward(g)
    gd, ga, gb, gs, gc = (t.grad for t in leaves)
    gu = gd.reshape(ln, e) * T._sigmoid(u)
    gx = (g * p.d_skip.data + gs.reshape(ln, e) + gu @ wd.T
          + gb.reshape(ln, n) @ wb.T + gc @ wc.T)
    return y, [gx, -ga.reshape(e, n) * expa, x.T @ gb.reshape(ln, n),
               x.T @ gc, x.T @ gu, gu.sum(axis=0), (g * x).sum(axis=0)]


def chained_fusion(yf, yr, theta, g):
    """gated_fusion as sigmoid, mul, sub, mul, add, with their adjoints."""
    s = T._sigmoid(theta)
    beta = np.asarray(1.0, dtype=theta.dtype) - s
    ga = (g * yf).sum(axis=0) + (-(g * yr).sum(axis=0))
    return s * yf + beta * yr, [g * s, g * beta, ga * s * (1.0 - s)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scan_and_fusion_match_the_chains(dtype):
    # forwards bit for bit in both dtypes; f64 gradients within 1e-12
    rng = make_rng(55)
    with T.default_dtype(dtype):
        p = init_ssm_params(rng, 4, 3)
        ln = SCAN_CHUNK + 6
        seq = Tensor(rng.normal(0, 1, (ln, 4)), requires_grad=True)
        theta = Tensor(rng.normal(0, 2, 4), requires_grad=True)
    g = rng.normal(0, 1, (ln, 4)).astype(dtype)

    def close(got, want):
        scale = max(np.abs(want).max(), 1e-300)
        assert np.abs(got - want).max() / scale < 1e-12

    y = selective_scan(seq, p.scan, "forward")
    want, grads = chained_scan(seq.data, p.scan, g)
    assert y.dtype == dtype
    np.testing.assert_array_equal(y.data, want)
    y.backward(g)
    if dtype == np.float64:
        for t, gw in zip([seq] + p.scan.tensors(), grads):
            close(t.grad, gw)

    yf = Tensor(rng.normal(0, 1, (ln, 4)), requires_grad=True, dtype=dtype)
    yr = Tensor(rng.normal(0, 1, (ln, 4)), requires_grad=True, dtype=dtype)
    fused = gated_fusion(yf, yr, theta)
    want, grads = chained_fusion(yf.data, yr.data, theta.data, g)
    assert fused.dtype == dtype
    np.testing.assert_array_equal(fused.data, want)
    fused.backward(g)
    if dtype == np.float64:
        for t, gw in zip([yf, yr, theta], grads):
            close(t.grad, gw)


def test_scan_and_fusion_refuse_mixed_dtypes():
    # the op never promotes silently; the caller converts explicitly
    rng = make_rng(56)
    with T.default_dtype(np.float32):
        p32 = init_ssm_params(rng, 3, 2).scan
    with pytest.raises(TypeError):
        selective_scan(rand_seq(rng, 5, 3), p32)  # f64 sequence
    p32.d_skip = Tensor(p32.d_skip.data, dtype=np.float64)
    with pytest.raises(TypeError):
        selective_scan(Tensor(rng.normal(0, 1, (5, 3)), dtype=np.float32),
                       p32)
    y64 = rand_seq(rng, 5, 3)
    with pytest.raises(TypeError):
        gated_fusion(y64, y64, Tensor(np.zeros(3), dtype=np.float32))
    y32 = Tensor(y64.data, dtype=np.float32)
    with pytest.raises(TypeError):
        gated_fusion(y32, y64, Tensor(np.zeros(3), dtype=np.float32))


def test_linear_recurrence_shape_errors():
    ln, e, n = 4, 2, 3
    shapes = [(ln, e, 1), (1, e, n), (ln, 1, n), (ln, e, 1), (ln, n)]
    bad = [(ln, e, n), (1, e + 1, n), (ln, 1, n + 1), (ln, e), (ln + 1, n)]
    for i, shape in enumerate(bad):
        args = [Tensor(np.ones(sh)) for sh in shapes]
        args[i] = Tensor(np.ones(shape))
        with pytest.raises(ValueError):
            linear_recurrence(*args)


# -- fusion -------------------------------------------------------------------


def test_fusion_zero_theta_is_exact_mean():
    rng = make_rng(50)
    a = rand_seq(rng, 5, 3)
    b = rand_seq(rng, 5, 3)
    out = gated_fusion(a, b, Tensor(np.zeros(3), dtype=np.float64))
    assert np.array_equal(out.data, 0.5 * a.data + 0.5 * b.data)


def test_fusion_saturated_theta_is_passthrough():
    rng = make_rng(51)
    a = rand_seq(rng, 4, 2)
    b = rand_seq(rng, 4, 2)
    out = gated_fusion(a, b, Tensor(np.full(2, 40.0), dtype=np.float64))
    assert np.array_equal(out.data, a.data)    # sigmoid(40) == 1.0 in f64


def test_fusion_is_convex_blend():
    rng = make_rng(52)
    a = Tensor(rng.uniform(0.5, 2.0, (6, 3)), dtype=np.float64)
    b = Tensor(rng.uniform(0.5, 2.0, (6, 3)), dtype=np.float64)
    out = gated_fusion(a, b, Tensor(rng.normal(0, 2, 3), dtype=np.float64))
    assert np.all(np.abs(out.data - a.data)
                  <= np.abs(b.data - a.data) + 1e-15)


def test_fusion_theta_gradient_matches_fd():
    rng = make_rng(53)
    a = rand_seq(rng, 5, 3)
    b = rand_seq(rng, 5, 3)
    theta = Tensor(rng.normal(0, 1, 3), requires_grad=True, dtype=np.float64)
    res = check_gradients(lambda th: gated_fusion(a, b, th), [theta],
                          name="fusion_theta")
    assert res.passed, str(res)


def test_fusion_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        gated_fusion(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 2))),
                     Tensor(np.zeros(2)))


# -- full block ---------------------------------------------------------------


def test_block_zero_input_is_identity():
    rng = make_rng(54)
    p = f64_params(rng, 4, 3)
    perm = build_permutation((3, 2, 2))
    feat = Tensor(np.zeros((4, 3, 2, 2)), dtype=np.float64)
    out = bidir_scan_block(feat, p, perm)
    assert np.array_equal(out.data, feat.data)


def test_block_shape_contract_on_crop_grid():
    rng = make_rng(55)
    p = f64_params(rng, 32, 2)
    perm = build_permutation((10, 10, 9))
    feat = Tensor(rng.normal(0, 1, (32, 10, 10, 9)), dtype=np.float64)
    out = bidir_scan_block(feat, p, perm)
    assert out.shape == (32, 10, 10, 9)
    assert np.all(np.isfinite(out.data))


def test_block_invariant_under_gather_scatter_roundtrip():
    rng = make_rng(56)
    p = f64_params(rng, 3, 2)
    perm = build_permutation((2, 3, 2))
    feat = Tensor(rng.normal(0, 1, (3, 2, 3, 2)), dtype=np.float64)
    restored = scatter_back(gather_sequence(feat, perm), perm)
    out1 = bidir_scan_block(feat, p, perm)
    out2 = bidir_scan_block(restored, p, perm)
    assert np.array_equal(out1.data, out2.data)


def test_block_gradients_match_fd():
    rng = make_rng(57)
    p = f64_params(rng, 2, 2)
    perm = build_permutation((2, 2, 2))
    feat = Tensor(make_rng(57, 1).normal(0, 1, (2, 2, 2, 2)),
                  requires_grad=True, dtype=np.float64)

    def fn(*_):
        return bidir_scan_block(feat, p, perm)

    res = check_gradients(fn, p.tensors() + [feat], name="bidir_scan_block")
    assert res.passed, str(res)


# -- parameter initialization -------------------------------------------------


def test_init_invariants():
    rng = make_rng(58)
    p = f64_params(rng, 8, 4)
    a = -np.exp(p.scan.a_log.data)
    assert np.all(a < 0)
    dt0 = np.log1p(np.exp(p.scan.b_delta.data))
    assert np.all(dt0 > 0.009) and np.all(dt0 < 0.11)
    alpha = 1.0 / (1.0 + np.exp(-p.theta.data))
    assert np.all((alpha > 0) & (alpha < 1))
    assert p.conv_w.shape == (8, 4)
