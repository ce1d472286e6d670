"""Finite-difference verification of the reverse-mode engine.

``check_gradients`` compares analytic gradients against central
differences, (f(x+h) - f(x-h)) / 2h, evaluated in float64. A
tensor-valued f is reduced to the scalar <probe, f(x)> with the fixed
cotangent probe = cos(arange(n)), which is 1 for a scalar f: the
analytic side seeds ``backward`` with it, one reverse pass giving
probe^T J, and the numeric side takes the dot product in numpy.
Comparison is elementwise with combined tolerance
|a - n| <= atol + rtol * |n|, and the reported figure of merit is the
max relative error |a - n| / max(|a|, |n|) over checked coordinates,
taken as 0 where both magnitudes sit below the finite-difference noise
floor.

For large parameter tensors, checking every coordinate is wasteful;
``sample`` coordinates are drawn without replacement from a seeded stream
so failures reproduce exactly.

``Sabotage`` is the checker's own proof: installed as a tape hook, it
flips the sign of one op's backward rule, which the checker must catch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .rng import make_rng

DEFAULT_EPS = 1e-5
DEFAULT_RTOL = 1e-4
DEFAULT_ATOL = 1e-7
# below this magnitude a relative error is FD noise, not signal
_REL_FLOOR = 1e-6


@dataclass
class GradCheckResult:
    name: str
    max_rel_error: float
    max_abs_error: float
    n_checked: int
    passed: bool
    worst_coord: tuple = ()

    def __str__(self):
        status = "ok" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: rel={self.max_rel_error:.3e} "
                f"abs={self.max_abs_error:.3e} ({self.n_checked} coords)")


class Sabotage:
    """Op hook that sign-flips the backward rule of every recorded `op`.

    ``wrapped`` counts the ops it flipped, so a run that never recorded
    the named op can be told apart from one the checker passed.
    """

    def __init__(self, op: str):
        self.op = op
        self.wrapped = 0

    def __call__(self, op, out, parents, backward_fn):
        if op != self.op or not out.requires_grad:
            return backward_fn
        self.wrapped += 1
        return lambda g: tuple(None if gi is None else -gi
                               for gi in backward_fn(g))


def cotangent(out: T.Tensor) -> np.ndarray:
    """The fixed probe cos(0), cos(1), ... laid out in out's shape."""
    return np.cos(np.arange(out.size, dtype=np.float64)).reshape(out.shape)


def central_difference(f, x: np.ndarray, coord: tuple, eps: float) -> float:
    """Derivative of scalar-valued f at one coordinate of x."""
    xp = x.copy()
    xm = x.copy()
    xp[coord] += eps
    xm[coord] -= eps
    return (f(xp) - f(xm)) / (2.0 * eps)


def check_gradients(fn, inputs: list[T.Tensor], name: str = "fn",
                    eps: float = DEFAULT_EPS, sample: int | None = None,
                    seed: int = 0) -> GradCheckResult:
    """Compare fn's analytic input gradients to central differences.

    fn maps the tensors in `inputs` to a Tensor, which the check reduces
    with `cotangent`. All inputs must be float64; the check is
    meaningless at single precision.
    """
    for t in inputs:
        if t.data.dtype != np.float64:
            raise TypeError("gradient checks require float64 inputs")
        if not t.requires_grad:
            raise ValueError("all checked inputs must have requires_grad")

    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    probe = cotangent(out)
    out.backward(probe)

    max_rel = 0.0
    max_abs = 0.0
    worst: tuple = ()
    n_checked = 0
    passed = True
    rng = make_rng(seed, 0xFD)

    for ti, t in enumerate(inputs):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat_coords = np.arange(t.size)
        if sample is not None and t.size > sample:
            flat_coords = rng.choice(t.size, size=sample, replace=False)

        def scalar_fn(x, _ti=ti):
            saved = inputs[_ti].data
            inputs[_ti].data = x
            try:
                with T.no_grad():
                    return float(np.sum(probe * fn(*inputs).data))
            finally:
                inputs[_ti].data = saved

        for fc in flat_coords:
            coord = np.unravel_index(int(fc), t.shape)
            num = central_difference(scalar_fn, t.data, coord, eps)
            ana = float(analytic[coord])
            abs_err = abs(ana - num)
            denom = max(abs(ana), abs(num))
            rel_err = abs_err / denom if denom > _REL_FLOOR else 0.0
            n_checked += 1
            if abs_err > DEFAULT_ATOL + DEFAULT_RTOL * abs(num):
                passed = False
            if rel_err > max_rel:
                max_rel = rel_err
                worst = (ti,) + tuple(int(c) for c in coord)
            max_abs = max(max_abs, abs_err)

    return GradCheckResult(name=name, max_rel_error=max_rel,
                           max_abs_error=max_abs, n_checked=n_checked,
                           passed=passed, worst_coord=worst)
