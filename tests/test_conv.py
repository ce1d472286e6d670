"""Convolution kernels checked against direct-summation oracles.

conv3d is verified coordinate by coordinate against a six-deep loop that
applies the definition (pad k//2, stride via output-grid subsampling), the
causal depthwise conv against its recurrence, upsampling against repeat,
and the fused upsample-then-conv against the two ops it replaces.
Gradients go through the central-difference checker.
"""

import numpy as np
import pytest

from mortonseg.conv import (
    conv3d,
    conv_out_extent,
    dwconv1d_causal,
    upsample_conv3d,
    upsample_conv_folds,
    upsample_nearest3d,
)
from mortonseg.gradcheck import check_gradients
from mortonseg.network import Model, desk_config
from mortonseg.tensor import Tensor


def leaf(arr):
    return Tensor(arr, dtype=np.float64, requires_grad=True)


def conv3d_oracle(x, w, b, stride):
    """Direct-summation 3-D convolution, pad k//2, same-grid subsampled."""
    cin, d, h, wd = x.shape
    cout, _, k, _, _ = w.shape
    p = k // 2
    od, oh, ow = (conv_out_extent(e, stride) for e in (d, h, wd))
    out = np.zeros((cout, od, oh, ow))
    for co in range(cout):
        for zi in range(od):
            for yi in range(oh):
                for xi in range(ow):
                    acc = b[co]
                    for ci in range(cin):
                        for dz in range(k):
                            for dy in range(k):
                                for dx in range(k):
                                    z = zi * stride + dz - p
                                    y = yi * stride + dy - p
                                    xx = xi * stride + dx - p
                                    if 0 <= z < d and 0 <= y < h and 0 <= xx < wd:
                                        acc += w[co, ci, dz, dy, dx] * x[ci, z, y, xx]
                    out[co, zi, yi, xi] = acc
    return out


# ---------------------------------------------------------------- extents

@pytest.mark.parametrize("extent,stride,expected", [
    (1, 1, 1), (5, 1, 5), (32, 1, 32),
    (1, 2, 1), (2, 2, 1), (3, 2, 2), (4, 2, 2), (5, 2, 3), (32, 2, 16),
    (7, 2, 4), (9, 2, 5),
])
def test_conv_out_extent(extent, stride, expected):
    assert conv_out_extent(extent, stride) == expected


# ---------------------------------------------------------------- conv3d

def gemm_form_cases(keys, spatial, cout):
    """Each key on the given grid, then with C_out = 8 on a few voxels.

    conv3d picks its GEMM form from shapes: the given grids take the
    per-tap form, the few-voxel ones (odd extents included) the stacked one.
    """
    cases = []
    for key in keys:
        tag = "-".join(map(str, key))
        cases.append(pytest.param(*key, spatial, cout, id=tag))
        for few in ((1, 2, 1), (3, 1, 5)):
            cases.append(pytest.param(
                *key, few, 8, id=f"{tag}-{'x'.join(map(str, few))}-c8"))
    return cases


@pytest.mark.parametrize("k,stride,spatial,cout", gemm_form_cases(
    [(k, s) for k in (1, 3) for s in (1, 2)], (4, 5, 3), 3))
def test_conv3d_matches_direct_summation(k, stride, spatial, cout):
    rng = np.random.default_rng(20 + 10 * stride + k)
    cin = 2
    x = rng.standard_normal((cin, *spatial))
    w = rng.standard_normal((cout, cin, k, k, k))
    b = rng.standard_normal((cout,))
    got = conv3d(leaf(x), leaf(w), leaf(b), stride=stride)
    want = conv3d_oracle(x, w, b, stride)
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)


def test_conv3d_stride1_preserves_grid():
    rng = np.random.default_rng(3)
    x = leaf(rng.standard_normal((3, 6, 7, 5)))
    w = leaf(rng.standard_normal((4, 3, 3, 3, 3)))
    b = leaf(np.zeros(4))
    assert conv3d(x, w, b, stride=1).shape == (4, 6, 7, 5)


def test_conv3d_stride2_halves_rounding_up():
    rng = np.random.default_rng(4)
    x = leaf(rng.standard_normal((2, 7, 8, 5)))
    w = leaf(rng.standard_normal((3, 2, 3, 3, 3)))
    b = leaf(np.zeros(3))
    assert conv3d(x, w, b, stride=2).shape == (3, 4, 4, 3)


def test_conv3d_identity_kernel():
    # A 1x1x1 kernel with unit weight and zero bias copies the channel.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 3, 4, 2))
    w = np.ones((1, 1, 1, 1, 1))
    b = np.zeros(1)
    out = conv3d(leaf(x), leaf(w), leaf(b))
    np.testing.assert_array_equal(out.data, x)


def test_conv3d_constant_input_interior():
    # On a constant input the interior response is the kernel sum plus bias.
    w = np.arange(27, dtype=np.float64).reshape(1, 1, 3, 3, 3)
    x = np.full((1, 5, 5, 5), 2.0)
    out = conv3d(leaf(x), leaf(w), leaf(np.array([1.5])))
    assert out.data[0, 2, 2, 2] == pytest.approx(2.0 * w.sum() + 1.5)


@pytest.mark.parametrize("bad", [
    ((2, 4, 4, 4), (3, 1, 3, 3, 3), (3,), 1),   # channel mismatch
    ((2, 4, 4, 4), (3, 2, 3, 3, 1), (3,), 1),   # non-cubic kernel
    ((2, 4, 4, 4), (3, 2, 3, 3, 3), (4,), 1),   # bias extent
    ((2, 4, 4, 4), (3, 2, 3, 3, 3), (3,), 3),   # unsupported stride
])
def test_conv3d_rejects_bad_shapes(bad):
    xs, ws, bs, stride = bad
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        conv3d(leaf(rng.standard_normal(xs)),
               leaf(rng.standard_normal(ws)),
               leaf(np.zeros(bs)), stride=stride)


@pytest.mark.parametrize("stride,spatial,cout",
                         gemm_form_cases([(1,), (2,)], (3, 4, 3), 2))
def test_conv3d_gradients(stride, spatial, cout):
    rng = np.random.default_rng(7 + stride)
    x = leaf(rng.standard_normal((2, *spatial)))
    w = leaf(0.3 * rng.standard_normal((cout, 2, 3, 3, 3)))
    b = leaf(rng.standard_normal((cout,)))

    def fn(x, w, b):
        return conv3d(x, w, b, stride=stride)

    res = check_gradients(fn, [x, w, b], "conv3d", sample=60, seed=11)
    assert res.passed, res


@pytest.mark.parametrize("stride,spatial,cout",
                         gemm_form_cases([(1,), (2,)], (3, 4, 3), 2))
def test_conv3d_without_bias_is_the_zero_bias_conv(stride, spatial, cout):
    # no bias parent and no bias reduction; the rest as with a zero bias
    rng = np.random.default_rng(12 + stride)
    x = rng.standard_normal((2, *spatial))
    w = rng.standard_normal((cout, 2, 3, 3, 3))
    g = rng.standard_normal((cout,) + tuple(
        conv_out_extent(e, stride) for e in spatial))
    results = []
    for b in (None, leaf(np.zeros(cout))):
        xt, wt = leaf(x), leaf(w)
        y = conv3d(xt, wt, b, stride)
        assert y._parents == ((xt, wt) if b is None else (xt, wt, b))
        y.backward(g)
        results.append((y.data, xt.grad, wt.grad))
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)


def closure_arrays(fn):
    """Base buffers of the arrays a backward closure keeps alive."""
    for cell in fn.__closure__ or ():
        try:
            v = cell.cell_contents
        except ValueError:  # a variable the taken branch never bound
            continue
        for a in v if isinstance(v, (list, tuple)) else (v,):
            if isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                yield a


@pytest.mark.parametrize("shape,cout,stride", [
    ((3, 6, 7, 5), 4, 1), ((3, 7, 6, 5), 4, 2), ((3, 2, 2, 2), 16, 1)])
def test_conv3d_tape_holds_no_columns(shape, cout, stride):
    # the tape keeps the input and the weights, which it holds anyway, and
    # in the per-tap form the tap-major weight copy: no column matrix and
    # no padded phases
    rng = np.random.default_rng(18)
    x = leaf(rng.standard_normal(shape))
    w = leaf(rng.standard_normal((cout, shape[0], 3, 3, 3)))
    b = leaf(np.zeros(cout))
    out = conv3d(x, w, b, stride=stride)
    tap_major = w.data.reshape(cout, shape[0], 27).transpose(2, 0, 1)
    held = [a for a in closure_arrays(out._backward_fn)
            if not any(a is t.data for t in (x, w, b))]
    assert len(held) <= 1
    assert all(np.array_equal(a, tap_major) for a in held)


def test_desk_forward_conv_closures_hold_no_padded_input():
    # every conv3d and upsample_conv3d closure of a desk forward holds no
    # array as large as its padded input, other than its parents' data and
    # copies of its weights (tap-major, or folded), whose trailing axes are
    # (C_out, C_in) or C_out * C_in
    model = Model(desk_config(), seed=0)
    x = np.random.default_rng(19).standard_normal((4, 16, 16, 16))
    stack, seen, convs = [model.forward(x).logits], set(), 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        if node.op not in ("conv3d", "upsample_conv3d"):
            continue
        convs += 1
        x, w = node._parents[:2]
        k = w.shape[2]
        padded = x.shape[0] * np.prod([e + k - 1 for e in x.shape[1:]])
        for a in closure_arrays(node._backward_fn):
            if any(a is p.data for p in node._parents):
                continue
            weights = (a.shape[-2:] == w.shape[:2]
                       or a.shape[-1] == w.shape[0] * w.shape[1])
            assert a.size < padded or weights, (node.op, x.shape, a.shape)
    assert convs


# ---------------------------------------------------------------- dwconv1d

def dwconv_oracle(x, w, b):
    ln, e = x.shape
    k = w.shape[1]
    out = np.zeros((ln, e))
    for t in range(ln):
        for ch in range(e):
            acc = b[ch]
            for j in range(k):
                src = t - (k - 1) + j
                if src >= 0:
                    acc += w[ch, j] * x[src, ch]
            out[t, ch] = acc
    return out


def test_dwconv_matches_direct_summation():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((9, 5))
    w = rng.standard_normal((5, 4))
    b = rng.standard_normal((5,))
    got = dwconv1d_causal(leaf(x), leaf(w), leaf(b))
    np.testing.assert_allclose(got.data, dwconv_oracle(x, w, b),
                               rtol=1e-12, atol=1e-12)


def test_dwconv_is_causal():
    # Changing the suffix of the input never changes earlier outputs.
    rng = np.random.default_rng(9)
    x = rng.standard_normal((12, 3))
    w = leaf(rng.standard_normal((3, 4)))
    b = leaf(rng.standard_normal((3,)))
    base = dwconv1d_causal(leaf(x), w, b).data
    for t in range(12):
        x2 = x.copy()
        x2[t + 1:] = rng.standard_normal(x2[t + 1:].shape) * 10
        out = dwconv1d_causal(leaf(x2), w, b).data
        np.testing.assert_array_equal(out[:t + 1], base[:t + 1])


def test_dwconv_channels_independent():
    # Zeroing one channel's input leaves every other channel untouched.
    rng = np.random.default_rng(10)
    x = rng.standard_normal((7, 4))
    w = leaf(rng.standard_normal((4, 4)))
    b = leaf(np.zeros(4))
    base = dwconv1d_causal(leaf(x), w, b).data
    x2 = x.copy()
    x2[:, 2] = 0.0
    out = dwconv1d_causal(leaf(x2), w, b).data
    np.testing.assert_array_equal(np.delete(out, 2, axis=1),
                                  np.delete(base, 2, axis=1))


def test_dwconv_rejects_mismatched_extents():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        dwconv1d_causal(leaf(rng.standard_normal((6, 3))),
                        leaf(rng.standard_normal((4, 4))),
                        leaf(np.zeros(4)))


def test_dwconv_gradients():
    rng = np.random.default_rng(12)
    x = leaf(rng.standard_normal((8, 3)))
    w = leaf(rng.standard_normal((3, 4)))
    b = leaf(rng.standard_normal((3,)))
    res = check_gradients(dwconv1d_causal, [x, w, b], "dwconv1d", sample=50,
                          seed=13)
    assert res.passed, res


# ---------------------------------------------------------------- upsample

def test_upsample_repeats_blocks():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 2, 3, 2))
    out = upsample_nearest3d(leaf(x))
    assert out.shape == (2, 4, 6, 4)
    for z in range(4):
        for y in range(6):
            for xx in range(4):
                np.testing.assert_array_equal(
                    out.data[:, z, y, xx], x[:, z // 2, y // 2, xx // 2])


def test_upsample_gradient_sums_blocks():
    # The adjoint of repeat is block-sum: seed with ones, expect 2^3.
    x = leaf(np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2))
    out = upsample_nearest3d(x)
    out.backward(np.ones(out.shape))
    np.testing.assert_array_equal(x.grad, np.full((1, 2, 2, 2), 8.0))


def test_upsample_gradients():
    rng = np.random.default_rng(16)
    x = leaf(rng.standard_normal((2, 2, 3, 2)))
    res = check_gradients(upsample_nearest3d, [x], "upsample", sample=40,
                          seed=17)
    assert res.passed, res


# ---------------------------------------------------------------- upsample_conv3d

@pytest.mark.parametrize("shape,cout,folded", [
    ((3, 5, 2, 3), 4, True), ((2, 1, 3, 2), 3, True), ((2, 4, 4, 4), 5, True),
    ((3, 1, 2, 1), 8, False), ((2, 2, 2, 2), 24, False)])
def test_upsample_conv3d_matches_upsample_then_conv(shape, cout, folded):
    # output and both gradients against conv3d(upsample_nearest3d(x), w)
    assert upsample_conv_folds(shape[1:], cout) == folded
    rng = np.random.default_rng(30 + cout)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((cout, shape[0], 3, 3, 3))
    g = rng.standard_normal((cout,) + tuple(2 * e for e in shape[1:]))
    results, ops = [], []
    for fn in (upsample_conv3d,
               lambda x, w: conv3d(upsample_nearest3d(x), w)):
        ts = [leaf(a) for a in (x, w)]
        y = fn(*ts)
        y.backward(g)
        results.append([y.data] + [t.grad for t in ts])
        ops.append(y.op)
    assert ops[0] == ("upsample_conv3d" if folded else "conv3d")
    for got, want in zip(*results):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def test_upsample_conv3d_records_one_op_when_folded():
    rng = np.random.default_rng(40)
    x = leaf(rng.standard_normal((3, 4, 5, 3)))
    w = leaf(rng.standard_normal((2, 3, 3, 3, 3)))
    y = upsample_conv3d(x, w)
    assert y.op == "upsample_conv3d" and y._parents == (x, w)
    # the tape keeps the padded low-res input, not the 8x upsampled grid
    held = [a for a in closure_arrays(y._backward_fn) if a is not x.data]
    assert max(a.size for a in held) < 8 * x.size


def test_upsample_conv3d_rejects_bad_shapes():
    rng = np.random.default_rng(41)
    x = leaf(rng.standard_normal((2, 3, 3, 3)))
    with pytest.raises(ValueError):
        upsample_conv3d(x, leaf(rng.standard_normal((3, 2, 1, 1, 1))))
    with pytest.raises(ValueError):
        upsample_conv3d(x, leaf(rng.standard_normal((3, 1, 3, 3, 3))))
