"""Registry of finite-difference checks covering every differentiable op.

Each entry builds small float64 inputs from a fixed seed and compares
analytic gradients against central differences. The suite is what the
`gradcheck` command runs and what the acceptance test asserts on; shapes
are kept tiny so the full sweep finishes well inside its time budget.

The vector quantizer is the one deliberate exception: its forward is
piecewise constant, so a finite-difference probe of the straight-through
path would measure zero. Its gradient contract (backward == identity,
bit for bit) is verified directly and reported alongside the FD results;
the commitment loss, which is differentiable, gets a normal FD entry.
The composed whole-network check therefore runs with VQ disabled.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .conv import (conv3d, dwconv1d_causal, upsample_conv3d,
                   upsample_nearest3d)
from .gradcheck import GradCheckResult, check_gradients
from .morton import build_permutation, gather_sequence, scatter_back
from .network import Model, ce_dice_loss, desk_config, instance_norm
from .rng import make_rng
from .ssm import (SCAN_CHUNK, ScanParams, gated_fusion, init_ssm_params,
                  linear_recurrence, selective_scan)
from .tensor import Tensor
from .vq import make_codebook, quantize, straight_through_check


def _t(rng, *shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True,
                  dtype=np.float64)


def suite(seed: int = 0) -> list:
    """(name, zero-arg callable -> GradCheckResult) pairs, all ops."""
    rng = make_rng(seed, 0xC0)
    checks = []

    def add(name, fn, inputs, **kw):
        checks.append((name, lambda: check_gradients(
            fn, inputs, name=name, **kw)))

    add("add", T.add, [_t(rng, 3, 4), _t(rng, 3, 4)])
    add("silu", T.silu, [_t(rng, 4, 4, lo=-3, hi=3)])
    add("concat", lambda x, y: T.concat([x, y], axis=1),
        [_t(rng, 2, 3), _t(rng, 2, 2)])
    add("layer_norm", lambda x: T.layer_norm(x, axis=-1), [_t(rng, 3, 6)])

    add("conv3d_s1", lambda x, w, bb: conv3d(x, w, bb, 1),
        [_t(rng, 2, 4, 4, 4), _t(rng, 3, 2, 3, 3, 3), _t(rng, 3)])
    add("conv3d_s2", lambda x, w, bb: conv3d(x, w, bb, 2),
        [_t(rng, 2, 5, 4, 6), _t(rng, 3, 2, 3, 3, 3), _t(rng, 3)])
    # C_out = 16 over a 2x3x2 grid lands on the stacked GEMM form, here
    # without a bias; its own stream keeps later entries' inputs as they were
    wide = make_rng(seed, 0xC4)
    add("conv3d_wide", conv3d,
        [_t(wide, 2, 2, 3, 2), _t(wide, 16, 2, 3, 3, 3)])
    add("dwconv1d", dwconv1d_causal,
        [_t(rng, 6, 3), _t(rng, 3, 4), _t(rng, 3)])
    add("upsample3d", upsample_nearest3d, [_t(rng, 2, 2, 3, 2)])
    # a 2x3x2 grid runs folded and a 1x2x1 grid with C_out = 5 composed;
    # like conv3d_wide, their own stream
    up = make_rng(seed, 0xC5)
    add("upsample_conv3d_folded", upsample_conv3d,
        [_t(up, 2, 2, 3, 2), _t(up, 3, 2, 3, 3, 3)])
    add("upsample_conv3d_composed", upsample_conv3d,
        [_t(up, 2, 1, 2, 1), _t(up, 5, 2, 3, 3, 3)])
    add("instance_norm", instance_norm,
        [_t(rng, 2, 3, 3, 3), _t(rng, 2, lo=0.5, hi=1.5), _t(rng, 2)])

    perm = build_permutation((2, 3, 2))
    add("morton_gather", lambda x: gather_sequence(x, perm),
        [_t(rng, 3, 2, 3, 2)])
    add("morton_scatter", lambda s: scatter_back(s, perm), [_t(rng, 12, 3)])

    def recurrence_inputs(ln):  # delta, a, b, s, c with E=2, N=3
        return [_t(rng, ln, 2, 1, lo=0.1, hi=1.0),
                _t(rng, 1, 2, 3, lo=-2.0, hi=-0.2),
                _t(rng, ln, 1, 3), _t(rng, ln, 2, 1), _t(rng, ln, 3)]

    add("linear_recurrence", linear_recurrence, recurrence_inputs(5))
    # two full chunks and a short one: state hand-off and reverse carry
    add("linear_recurrence_chunks", linear_recurrence,
        recurrence_inputs(2 * SCAN_CHUNK + 5))

    with T.default_dtype(np.float64):
        scan_p = init_ssm_params(make_rng(seed, 0xC1), e=2, n=3)
        cb = make_codebook(make_rng(seed, 0xC2), k=4, d=3)

    def run_scan(direction):
        return lambda seq, *ps: selective_scan(seq, ScanParams(*ps),
                                               direction)

    add("selective_scan", run_scan("forward"),
        [_t(rng, 6, 2), *scan_p.scan.tensors()])
    # the reverse direction flips inside the op; its own stream
    add("selective_scan_reverse", run_scan("reverse"),
        [_t(make_rng(seed, 0xC6), 6, 2), *scan_p.scan.tensors()])
    add("gated_fusion", gated_fusion,
        [_t(rng, 5, 3), _t(rng, 5, 3), _t(rng, 3)])

    # a (D, M) map: five tokens of dimension 3
    add("vq_commit", lambda y: quantize(y, cb).commit_loss, [_t(rng, 3, 5)])
    labels = np.arange(12).reshape(2, 3, 2) % 4
    add("ce_dice_loss", lambda z, cm: ce_dice_loss(z, labels, cm).total,
        [_t(rng, 4, 2, 3, 2, lo=-2.0, hi=2.0), _t(rng)])
    checks.append(("vq_ste_identity", lambda: _ste_identity(seed)))
    checks.append(("composed_forward", lambda: _composed_check(seed)))
    return checks


def _ste_identity(seed: int) -> GradCheckResult:
    """Bit-exact identity-Jacobian check, reported in FD-result shape."""
    rng = make_rng(seed, 0xC2)
    with T.default_dtype(np.float64):
        cb = make_codebook(rng, k=4, d=3)
    y = rng.normal(0.0, 1.0, size=(6, 3)).T  # six tokens as a (D, M) map

    rep = straight_through_check(y, T.silu, cb)
    return GradCheckResult(name="vq_ste_identity",
                           max_rel_error=rep.max_abs_diff,
                           max_abs_error=rep.max_abs_diff,
                           n_checked=y.size, passed=rep.passed)


def _composed_check(seed: int) -> GradCheckResult:
    """Whole network (VQ off), parameters probed one coordinate each."""
    cfg = desk_config(channels=(2, 2, 2, 2, 2, 4), state_size=2,
                      vq_enabled=False)
    with T.default_dtype(np.float64):
        model = Model(cfg, seed=5)
    # a zero head hides upstream gradients; nudge it off the origin
    h_rng = make_rng(5, 99)
    model.head_w.data = h_rng.normal(0, 0.3, model.head_w.shape)
    model.head_b.data = h_rng.normal(0, 0.3, model.head_b.shape)

    labels = (np.arange(32 ** 3) % 4).reshape(32, 32, 32)
    x = Tensor(make_rng(seed, 0xC3).normal(0, 1, (4, 32, 32, 32)),
               dtype=np.float64)
    params = list(model.named_parameters().values())

    def fn(*ps):
        res = model.forward(x)
        return ce_dice_loss(res.logits, labels, res.commit_loss).total

    # tighter step than the per-op default: the chance of an FD interval
    # straddling a relu kink grows with voxel count x step size, and one
    # crossing among ~100k activations ruins the comparison
    return check_gradients(fn, params, name="composed_forward", sample=1,
                           eps=1e-6, seed=seed)


def run_suite(op_filter: str | None = None, seed: int = 0) -> list:
    """Execute (optionally filtered) checks; returns GradCheckResults."""
    results = []
    for name, fn in suite(seed):
        if op_filter and op_filter not in name:
            continue
        results.append(fn())
    if op_filter and not results:
        raise ValueError(f"no gradient check matches '{op_filter}'")
    return results
