"""The checker itself must catch bad gradients, not just bless good ones.

A verifier that cannot fail is no verifier: these tests feed it a
correct function, a function whose backward is deliberately wrong, and
the sign-flip fault hook, and assert it resolves all three correctly.
"""

import numpy as np
import pytest

from mortonseg import tensor as T
from mortonseg.gradcheck import (Sabotage, central_difference, check_gradients,
                                 cotangent)
from mortonseg.checksuite import run_suite, suite
from mortonseg.tensor import Tensor


def leaf(arr):
    return Tensor(arr, dtype=np.float64, requires_grad=True)


def test_central_difference_on_quadratic():
    # d/dx sum(x^2) = 2x, exact for central differences on a quadratic
    x = np.array([1.0, -2.0, 3.0])
    f = lambda v: float((v ** 2).sum())
    assert central_difference(f, x, (1,), 1e-5) == pytest.approx(-4.0,
                                                                 abs=1e-9)


def test_passes_correct_gradient():
    x = leaf(np.random.default_rng(0).standard_normal((3, 3)))
    res = check_gradients(T.silu, [x], "silu")
    assert res.passed
    assert res.max_rel_error < 1e-4
    assert res.n_checked == 9


def test_catches_wrong_backward():
    x = leaf(np.random.default_rng(1).standard_normal(4))

    def broken(t):
        # forward is t^2 but backward claims d/dt = t (missing factor 2)
        return Tensor._make(t.data ** 2, (t,), lambda g: (g * t.data,),
                            "broken_square")

    res = check_gradients(broken, [x], "broken")
    assert not res.passed
    assert res.max_rel_error > 0.1


def test_catches_sabotaged_op():
    x = leaf(np.random.default_rng(2).standard_normal((2, 3)))
    with T.op_hook(Sabotage("silu")):
        res = check_gradients(T.silu, [x], "sabotaged_silu")
    assert not res.passed


def test_tensor_valued_fn_is_seeded_with_the_cosine_cotangent():
    # f(x) = x flipped twice has Jacobian I, so the gradient is the probe
    x = leaf(np.random.default_rng(5).standard_normal((2, 3)))
    res = check_gradients(lambda t: T.flip(T.flip(t, 1), 1), [x], "flip2")
    assert res.passed
    assert np.array_equal(x.grad, np.cos(np.arange(6.0)).reshape(2, 3))
    assert cotangent(T.Tensor(2.0)) == 1.0


def test_requires_float64_leaves():
    x = Tensor(np.ones(3), dtype=np.float32, requires_grad=True)
    with pytest.raises(TypeError):
        check_gradients(T.silu, [x], "f32")


def test_sampling_limits_coordinates():
    x = leaf(np.random.default_rng(4).standard_normal((10, 10)))
    res = check_gradients(T.silu, [x], "sampled", sample=7, seed=3)
    assert res.passed
    assert res.n_checked == 7


def test_suite_names_unique_and_cover_composed_checks():
    # listed, not run: acceptance criterion 1 runs the sweep and asserts
    # that every check passes
    names = [name for name, _ in suite()]
    assert len(names) == len(set(names))
    assert "composed_forward" in names
    assert "vq_ste_identity" in names


def test_run_suite_filter():
    results = run_suite(op_filter="conv")
    assert results and all("conv" in r.name for r in results)
    with pytest.raises(ValueError):
        run_suite(op_filter="no_such_op")
