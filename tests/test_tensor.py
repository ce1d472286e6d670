"""Autodiff engine: finite-difference checks, tape mechanics, contexts."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortonseg import tensor as T
from mortonseg.gradcheck import Sabotage, check_gradients
from mortonseg.rng import make_rng


def leaf(rng, *shape, lo=-2.0, hi=2.0):
    return T.Tensor(rng.uniform(lo, hi, shape), requires_grad=True,
                    dtype=np.float64)


def random_shape(rng, max_ndim=3, max_extent=5):
    nd = int(rng.integers(1, max_ndim + 1))
    return tuple(int(rng.integers(1, max_extent + 1)) for _ in range(nd))


def scalarize(fn):
    """Wrap an op into a scalar loss with a fixed cosine probe."""
    def wrapped(*ts):
        out = fn(*ts)
        probe = T.Tensor(np.cos(np.arange(out.size, dtype=np.float64))
                         .reshape(out.shape), dtype=np.float64)
        return T.tsum(T.mul(out, probe))
    return wrapped


UNARY_OPS = [
    ("silu", T.silu, (-3.0, 3.0)),
]

BINARY_OPS = [
    ("add", T.add, (-2.0, 2.0)),
    ("mul", T.mul, (-2.0, 2.0)),
]


# pinned test ids, so each case keeps its name across revisions of the list
UNARY_IDS = ["silu-silu-box6"]
BINARY_IDS = ["add-add-box0", "mul-mul-box2"]


@pytest.mark.parametrize("name,op,box", UNARY_OPS, ids=UNARY_IDS)
def test_unary_op_gradients_on_random_shapes(name, op, box):
    # five random small shapes per op, h = 1e-5, rel err < 1e-4
    for trial in range(5):
        rng = make_rng(17, trial)
        x = leaf(rng, *random_shape(rng), lo=box[0], hi=box[1])
        res = check_gradients(scalarize(op), [x], name=name, seed=trial)
        assert res.passed, str(res)
        assert res.max_rel_error < 1e-4


@pytest.mark.parametrize("name,op,box", BINARY_OPS, ids=BINARY_IDS)
def test_binary_op_gradients_on_random_shapes(name, op, box):
    for trial in range(5):
        rng = make_rng(18, trial)
        shape = random_shape(rng)
        a = leaf(rng, *shape, lo=box[0], hi=box[1])
        b = leaf(rng, *shape, lo=box[0], hi=box[1])
        res = check_gradients(scalarize(op), [a, b], name=name, seed=trial)
        assert res.passed, str(res)


@pytest.mark.parametrize("name,fn", [
    ("sum_all", lambda x: T.tsum(x)),
    ("sum_axis0", lambda x: T.tsum(T.silu(T.tsum(x, axis=0)))),
    ("layer_norm", lambda x: T.tsum(T.mul(T.layer_norm(x, axis=-1),
                                          T.Tensor(np.cos(np.arange(x.size))
                                                   .reshape(x.shape),
                                                   dtype=np.float64)))),
    ("reshape", lambda x: T.tsum(T.silu(T.reshape(x, (-1,))))),
    ("transpose", lambda x: T.tsum(T.mul(T.transpose(x),
                                         T.transpose(x)))),
    ("flip", lambda x: T.tsum(T.mul(T.flip(x, axis=0), x))),
])
def test_structured_op_gradients(name, fn):
    for trial in range(5):
        rng = make_rng(19, trial)
        nd = int(rng.integers(2, 4))
        shape = tuple(int(rng.integers(2, 5)) for _ in range(nd))
        x = leaf(rng, *shape, lo=0.5, hi=2.0)
        res = check_gradients(fn, [x], name=name, seed=trial)
        assert res.passed, str(res)


def chained_layer_norm(x, axis):
    """layer_norm in numpy steps: mean, sub, mul, mean, add, sqrt, div."""
    centered = x - x.mean(axis=axis, keepdims=True)
    var = (centered * centered).mean(axis=axis, keepdims=True)
    return centered / np.sqrt(var + np.asarray(T.NORM_EPS, dtype=x.dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_norm_forwards_match_the_chains_bit_for_bit(dtype):
    x = make_rng(22).normal(0, 3, (4, 5, 6, 7)).astype(dtype)
    t = T.Tensor(x, dtype=dtype)
    for got, want in [
            (T.layer_norm(t), chained_layer_norm(x, (3,))),
            (T.layer_norm(t, axis=(1, 2, 3)),
             chained_layer_norm(x, (1, 2, 3)))]:
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.data, want)


def test_layer_norm_backward_holds_only_its_output_at_full_size():
    x = leaf(make_rng(23), 3, 4, 5)
    y = T.layer_norm(x, axis=(1, 2))
    held = [c.cell_contents for c in y._backward_fn.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    full = [h for h in held if h.size >= x.size]
    assert len(full) == 1 and full[0] is y.data


def test_take_and_concat_gradients():
    rng = make_rng(21)
    x = leaf(rng, 5, 3)
    y = leaf(rng, 2, 3)

    def fn(a, b):
        joined = T.concat([a, b], axis=0)
        return T.mul(joined, joined)

    res = check_gradients(scalarize(fn), [x, y], name="concat")
    assert res.passed, str(res)


def test_broadcasting_gradients_match_fd():
    rng = make_rng(22)
    a = leaf(rng, 4, 1, 3)
    b = leaf(rng, 2, 3)
    res = check_gradients(scalarize(T.mul), [a, b], name="broadcast_mul")
    assert res.passed, str(res)


# -- tape mechanics ----------------------------------------------------------


def test_diamond_graph_accumulates_both_paths():
    x = T.Tensor([3.0], requires_grad=True, dtype=np.float64)
    y = T.Tensor([5.0], requires_grad=True, dtype=np.float64)
    z = T.tsum(T.add(T.mul(x, y), x))     # z = x*y + x
    z.backward()
    assert np.allclose(x.grad, [6.0])     # y + 1
    assert np.allclose(y.grad, [3.0])     # x


def test_backward_accumulates_across_calls():
    x = T.Tensor([2.0], requires_grad=True, dtype=np.float64)
    T.tsum(T.mul(x, x)).backward()
    first = x.grad.copy()
    T.tsum(T.mul(x, x)).backward()
    assert np.allclose(x.grad, 2.0 * first)


def test_grad_only_on_leaves():
    x = T.Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    mid = T.mul(x, x)
    T.tsum(mid).backward()
    assert x.grad is not None
    assert mid.grad is None


def test_backward_nonscalar_requires_seed():
    x = T.Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    y = T.mul(x, x)
    with pytest.raises(ValueError):
        y.backward()
    y.backward(np.ones(2))
    assert np.allclose(x.grad, [2.0, 4.0])


def test_seed_gradient_shape_mismatch_raises():
    x = T.Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    y = T.mul(x, x)
    with pytest.raises(ValueError):
        y.backward(np.ones(3))


def test_no_grad_disables_taping():
    x = T.Tensor([1.0], requires_grad=True, dtype=np.float64)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad
    assert y._backward_fn is None


def test_requires_grad_propagation():
    a = T.Tensor([1.0], requires_grad=True)
    b = T.Tensor([2.0])
    assert T.add(a, b).requires_grad
    assert not T.add(b, b).requires_grad


def test_full_reduction_is_zero_dim():
    x = T.Tensor(np.ones((3, 4)), requires_grad=True, dtype=np.float64)
    assert T.tsum(x).shape == ()


def test_scalar_tensor_stays_zero_dim():
    assert T.Tensor(2.5).shape == ()
    assert T.Tensor(np.float64(1.0)).data.ndim == 0


# -- numerics guards and contexts --------------------------------------------


def test_nonfinite_output_raises_numerical_error():
    x = T.Tensor([1e200], requires_grad=True, dtype=np.float64)
    with T.op_hook(T.check_finite):
        with pytest.raises(T.NumericalError, match="'mul'"):
            with np.errstate(over="ignore"):
                T.mul(x, x)
        # untaped ops are checked too
        with T.no_grad(), pytest.raises(T.NumericalError, match="'mul'"):
            with np.errstate(over="ignore"):
                T.mul(x, x)


def test_op_hook_is_removed_when_its_block_exits():
    seen = []

    def hook(op, out, parents, backward_fn):
        seen.append(op)
        return backward_fn

    x = T.Tensor([1.0], requires_grad=True, dtype=np.float64)
    with T.op_hook(hook):
        T.silu(x)
    with pytest.raises(RuntimeError):
        with T.op_hook(hook):
            T.mul(x, x)
            raise RuntimeError("leave the block")
    T.add(x, x)
    assert seen == ["silu", "mul"]


def test_named_tensors_walks_fields_items_and_attributes():
    @dataclass
    class Pair:
        second: T.Tensor
        first: T.Tensor
        count: int = 2

    class Holder:
        def __init__(self):
            self.w = T.Tensor([1.0])
            self.note = "skipped"
            self.table = np.zeros(3)

    a, b = T.Tensor([2.0]), T.Tensor([3.0])
    h = Holder()
    named = T.named_tensors({"pair": Pair(a, b), "h": h}, "m")
    assert list(named) == ["m.pair.second", "m.pair.first", "m.h.w"]
    assert named["m.pair.second"] is a and named["m.h.w"] is h.w
    assert list(T.named_tensors(Pair(a, b))) == ["second", "first"]


def test_default_dtype_context():
    with T.default_dtype(np.float64):
        assert T.Tensor([1.0]).dtype == np.float64
    with T.default_dtype(np.float32):
        assert T.Tensor([1.0]).dtype == np.float32


def test_set_default_dtype_rejects_non_float():
    with pytest.raises(ValueError):
        T.set_default_dtype(np.int32)


def test_sabotage_hook_flips_backward_sign():
    x = T.Tensor([1.0, -2.0], requires_grad=True, dtype=np.float64)
    with T.op_hook(Sabotage("mul")):
        T.tsum(T.mul(x, x)).backward()
    assert np.allclose(x.grad, [-2.0, 4.0])  # sign-flipped 2x


# -- property tests ----------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
def test_sum_linearity(values):
    x = T.Tensor(values, requires_grad=True, dtype=np.float64)
    T.tsum(T.mul(x, 3.0)).backward()
    assert np.allclose(x.grad, 3.0)
