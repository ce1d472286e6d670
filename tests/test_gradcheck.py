"""The checker itself must catch bad gradients, not just bless good ones.

A verifier that cannot fail is no verifier: these tests feed it a
correct function, a function whose backward is deliberately wrong, and
the sign-flip fault hook, and assert it resolves all three correctly.
"""

import numpy as np
import pytest

from mortonseg import tensor as T
from mortonseg.gradcheck import Sabotage, central_difference, check_gradients
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

    def fn(x):
        return T.tsum(T.mul(T.silu(x), x))

    res = check_gradients(fn, [x], "silu_times_x")
    assert res.passed
    assert res.max_rel_error < 1e-4
    assert res.n_checked == 9


def test_catches_wrong_backward():
    x = leaf(np.random.default_rng(1).standard_normal(4))

    def broken(t):
        # forward is t^2 but backward claims d/dt = t (missing factor 2)
        return Tensor._make(t.data ** 2, (t,), lambda g: (g * t.data,),
                            "broken_square")

    res = check_gradients(lambda t: T.tsum(broken(t)), [x], "broken")
    assert not res.passed
    assert res.max_rel_error > 0.1


def test_catches_sabotaged_op():
    x = leaf(np.random.default_rng(2).standard_normal((2, 3)))
    y = leaf(np.random.default_rng(3).standard_normal((2, 3)))
    with T.op_hook(Sabotage("mul")):
        res = check_gradients(lambda a, b: T.tsum(T.mul(a, b)), [x, y],
                              "sabotaged_mul")
    assert not res.passed


def test_requires_float64_leaves():
    x = Tensor(np.ones(3), dtype=np.float32, requires_grad=True)
    with pytest.raises(TypeError):
        check_gradients(lambda t: T.tsum(t), [x], "f32")


def test_sampling_limits_coordinates():
    x = leaf(np.random.default_rng(4).standard_normal((10, 10)))
    res = check_gradients(lambda t: T.tsum(T.mul(t, t)), [x], "sampled",
                          sample=7, seed=3)
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
