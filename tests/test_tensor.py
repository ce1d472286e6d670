"""Autodiff engine: finite-difference checks, tape mechanics, contexts."""

from dataclasses import dataclass

import numpy as np
import pytest

from mortonseg import tensor as T
from mortonseg.gradcheck import Sabotage, check_gradients
from mortonseg.network import ce_dice_loss
from mortonseg.rng import make_rng
from mortonseg.vq import make_codebook, quantize


def leaf(rng, *shape, lo=-2.0, hi=2.0):
    return T.Tensor(rng.uniform(lo, hi, shape), requires_grad=True,
                    dtype=np.float64)


def random_shape(rng, max_ndim=3, max_extent=5):
    nd = int(rng.integers(1, max_ndim + 1))
    return tuple(int(rng.integers(1, max_extent + 1)) for _ in range(nd))


UNARY_OPS = [
    ("silu", T.silu, (-3.0, 3.0)),
]

BINARY_OPS = [
    ("add", T.add, (-2.0, 2.0)),
]


# pinned test ids, so each case keeps its name across revisions of the list
UNARY_IDS = ["silu-silu-box6"]
BINARY_IDS = ["add-add-box0"]


@pytest.mark.parametrize("name,op,box", UNARY_OPS, ids=UNARY_IDS)
def test_unary_op_gradients_on_random_shapes(name, op, box):
    # five random small shapes per op, h = 1e-5, rel err < 1e-4
    for trial in range(5):
        rng = make_rng(17, trial)
        x = leaf(rng, *random_shape(rng), lo=box[0], hi=box[1])
        res = check_gradients(op, [x], name=name, seed=trial)
        assert res.passed, str(res)
        assert res.max_rel_error < 1e-4


@pytest.mark.parametrize("name,op,box", BINARY_OPS, ids=BINARY_IDS)
def test_binary_op_gradients_on_random_shapes(name, op, box):
    for trial in range(5):
        rng = make_rng(18, trial)
        shape = random_shape(rng)
        a = leaf(rng, *shape, lo=box[0], hi=box[1])
        b = leaf(rng, *shape, lo=box[0], hi=box[1])
        res = check_gradients(op, [a, b], name=name, seed=trial)
        assert res.passed, str(res)


@pytest.mark.parametrize("name,fn", [
    ("layer_norm", lambda x: T.layer_norm(x, axis=-1)),
    ("flip", lambda x: T.add(T.flip(x, axis=0), x)),
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


def masked_sigmoid(x):
    """The two-branch formula _sigmoid replaced, kept as its oracle."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype,bits", [(np.float32, np.uint32),
                                        (np.float64, np.uint64)])
def test_sigmoid_matches_the_masked_formula_bit_for_bit(dtype, bits):
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
         np.finfo(dtype).tiny / 3, -np.finfo(dtype).tiny / 3, 100.5, -100.5,
         150.0, -150.0, 800.0, -800.0, np.finfo(dtype).max,
         -np.finfo(dtype).max, 0.5, -0.5], dtype=dtype)
    # NaNs with payloads and either sign keep their bits as before
    top = bits(1) << bits(8 * np.dtype(dtype).itemsize - 1)
    nan = np.array(np.nan, dtype=dtype).view(bits)
    payloads = np.array([nan | bits(5), (nan | bits(291)) | top],
                        dtype=bits).view(dtype)
    rng = make_rng(26)
    table = np.concatenate([specials, payloads,
                            rng.normal(0.0, 30.0, 200).astype(dtype)])
    cases = [table[i:i + 1].reshape(()) for i in range(len(table))]
    cases += [table, rng.permutation(np.resize(table, 40 * 7)).reshape(40, 7)]
    with np.errstate(all="ignore"):
        for x in cases:
            got, want = T._sigmoid(x), masked_sigmoid(x)
            assert got.shape == x.shape and got.dtype == dtype
            assert got.view(bits).tobytes() == want.view(bits).tobytes(), x


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

    res = check_gradients(lambda a, b: T.silu(T.concat([a, b], axis=0)),
                          [x, y], name="concat")
    assert res.passed, str(res)


def test_add_takes_one_shape_and_dtype():
    a = T.Tensor(np.ones((3, 4)), dtype=np.float64)
    with pytest.raises(ValueError, match=r"\(3, 4\) and \(4,\)"):
        T.add(a, T.Tensor(np.ones(4), dtype=np.float64))
    with pytest.raises(TypeError, match="mixed dtypes"):
        T.add(a, T.Tensor(np.ones((3, 4)), dtype=np.float32))


# -- tape mechanics ----------------------------------------------------------


def silu_grad(v):
    s = 1.0 / (1.0 + np.exp(-v))
    return s * (1.0 + v * (1.0 - s))


def test_diamond_graph_accumulates_both_paths():
    x = T.Tensor([3.0], requires_grad=True, dtype=np.float64)
    y = T.Tensor([5.0], requires_grad=True, dtype=np.float64)
    z = T.add(T.silu(x), T.add(x, y))     # z = silu(x) + x + y
    z.backward()
    assert np.allclose(x.grad, silu_grad(3.0) + 1.0)
    assert np.allclose(y.grad, [1.0])


def test_backward_sink_takes_each_leaf_once_after_its_last_use():
    rng = np.random.default_rng(12)
    x, y = leaf(rng, 4), leaf(rng, 4)
    seed = rng.standard_normal(4)

    def graph():  # x has two uses, and silu's closure reads x.data
        return T.add(T.silu(x), T.add(x, y))

    graph().backward(seed)
    want = {id(x): x.grad, id(y): y.grad}
    taken = []

    def sink(t, g):
        taken.append((id(t), g.copy()))
        t.data[...] = np.nan  # in place: no closure may read it any more

    graph().backward(seed, sink=sink)
    assert sorted(k for k, _ in taken) == sorted(want)
    for k, g in taken:
        np.testing.assert_array_equal(g, want[k])
    np.testing.assert_array_equal(x.grad, want[id(x)])  # left alone


def test_second_backward_through_a_consumed_op_raises():
    x = T.Tensor([0.5, -1.5], requires_grad=True, dtype=np.float64)
    y = T.Tensor([2.0, 1.0], requires_grad=True, dtype=np.float64)
    mid = T.silu(x)
    out = T.add(mid, y)
    out.backward(np.ones(2))
    first = x.grad.copy()
    # the pass released every op it ran: no closure, no parent links
    assert mid._parents == () and out._parents == ()
    with pytest.raises(RuntimeError, match="'add'"):
        out.backward(np.ones(2))
    # a new op on a consumed one reaches it: the pass refuses before any
    # closure runs, and lands nothing on the consumed node's .grad, as it
    # would if the release had made it look like a leaf
    with pytest.raises(RuntimeError, match="'silu'"):
        T.add(mid, y).backward(np.ones(2))
    assert mid.grad is None
    np.testing.assert_array_equal(x.grad, first)
    np.testing.assert_array_equal(y.grad, [1.0, 1.0])


def test_backward_accumulates_across_calls():
    x = T.Tensor([2.0], requires_grad=True, dtype=np.float64)
    T.silu(x).backward()
    first = x.grad.copy()
    T.silu(x).backward()
    assert np.allclose(x.grad, 2.0 * first)


def test_grad_only_on_leaves():
    x = T.Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    mid = T.silu(x)
    T.add(mid, mid).backward(np.ones(2))
    assert x.grad is not None
    assert mid.grad is None


def test_backward_nonscalar_requires_seed():
    x = T.Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    y = T.silu(x)
    with pytest.raises(ValueError):
        y.backward()
    y.backward(np.array([1.0, 3.0]))
    assert np.allclose(x.grad, silu_grad(np.array([1.0, 2.0])) * [1.0, 3.0])


def test_seed_gradient_shape_mismatch_raises():
    x = T.Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    y = T.silu(x)
    with pytest.raises(ValueError):
        y.backward(np.ones(3))


def test_no_grad_disables_taping():
    x = T.Tensor([1.0], requires_grad=True, dtype=np.float64)
    with T.no_grad():
        y = T.silu(x)
    assert not y.requires_grad
    assert y._backward_fn is None


def test_requires_grad_propagation():
    a = T.Tensor([1.0], requires_grad=True)
    b = T.Tensor([2.0])
    assert T.add(a, b).requires_grad
    assert not T.add(b, b).requires_grad


def test_full_reduction_is_zero_dim():
    # the model's full reductions: backward() takes them without a seed
    rng = make_rng(24)
    logits = leaf(rng, 4, 2, 3, 2)
    labels = np.arange(12).reshape(2, 3, 2) % 4
    y = T.Tensor(rng.uniform(-2.0, 2.0, (5, 3)).T, requires_grad=True,
                 dtype=np.float64)  # five 3-d tokens as a (D, M) map
    with T.default_dtype(np.float64):
        cb = make_codebook(rng, k=4, d=3)
    for out in (ce_dice_loss(logits, labels).total,
                quantize(y, cb).commit_loss):
        assert out.shape == ()
        out.backward()
    assert logits.grad.shape == logits.shape and y.grad.shape == y.shape


def test_scalar_tensor_stays_zero_dim():
    assert T.Tensor(2.5).shape == ()
    assert T.Tensor(np.float64(1.0)).data.ndim == 0


# -- numerics guards and contexts --------------------------------------------


def test_nonfinite_output_raises_numerical_error():
    x = T.Tensor([1e308], requires_grad=True, dtype=np.float64)
    with T.op_hook(T.check_finite):
        with pytest.raises(T.NumericalError, match="'add'"):
            with np.errstate(over="ignore"):
                T.add(x, x)
        # untaped ops are checked too
        with T.no_grad(), pytest.raises(T.NumericalError, match="'add'"):
            with np.errstate(over="ignore"):
                T.add(x, x)


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
            T.add(x, x)
            raise RuntimeError("leave the block")
    T.silu(x)
    assert seen == ["silu", "add"]


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
    with T.op_hook(Sabotage("add")):
        T.add(x, x).backward(np.array([1.0, 3.0]))
    assert np.array_equal(x.grad, [-2.0, -6.0])  # sign-flipped 2g
