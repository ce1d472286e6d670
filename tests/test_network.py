"""Assembled network: config, loss, parameter bookkeeping, inference.

Loss components are rebuilt with independent numpy formulas; parameter
counts are pinned integers (recomputed from shapes, not trusted from the
module); sliding-window inference is checked for exactness in the
degenerate case and full coverage in the tiled case.
"""

import functools
import inspect
from pathlib import Path

import numpy as np
import pytest

from mortonseg import conv, gradcheck, phantom
from mortonseg import tensor as T
from mortonseg.checkpoint import load_checkpoint
from mortonseg.checksuite import suite
from mortonseg.morton import build_permutation
from mortonseg.network import (
    DICE_EPS,
    FOREGROUND_CLASSES,
    RETIRED_CONFIG_KEYS,
    Model,
    NetConfig,
    ce_dice_loss,
    desk_config,
    full_config,
    instance_norm,
    one_hot,
    sliding_window_infer,
    soft_dice,
)
from mortonseg.ssm import bidir_scan_block, init_ssm_params
from mortonseg.tensor import Tensor
from mortonseg.train import AdamW
from mortonseg.vq import make_codebook, quantize

# the counts with the conv biases, less their sum(C_out) over the 27
# ConvBlocks: 3,504 at full width, 876 at desk width
FULL_PARAMS = 26_522_644 - 3_504       # includes the codebook table
FULL_PARAMS_NO_CB = 26_260_500 - 3_504
DESK_PARAMS = 1_658_504 - 876


def tiny_config(**overrides):
    """Smallest config that still exercises every code path."""
    base = desk_config(channels=(2, 3, 4, 5, 6, 8), state_size=4, vq_k=8)
    from dataclasses import replace
    return replace(base, **overrides)


def softmax_np(x, axis=0):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------- config

def test_config_requires_six_stages():
    with pytest.raises(ValueError):
        NetConfig(channels=(8, 16, 32))


@pytest.mark.parametrize("field, value", [
    ("in_channels", 0), ("in_channels", 4.0), ("num_classes", True),
    ("state_size", -2), ("vq_k", "64"), ("channels", (4, 8, 16, 32, 0, 128)),
    ("channels", (4, 8, 16.5, 32, 64, 128)), ("vq_enabled", 1)])
def test_config_rejects_bad_field(field, value):
    with pytest.raises(ValueError, match=f"'{field}'"):
        desk_config(**{field: value})


def test_config_roundtrip_and_overrides():
    cfg = desk_config(vq_enabled=False, state_size=8)
    assert not cfg.vq_enabled and cfg.state_size == 8
    assert NetConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.down_factor == 16
    assert full_config().channels == (16, 32, 64, 128, 256, 512)
    assert desk_config().channels == (4, 8, 16, 32, 64, 128)


def test_config_fields_are_the_six_settable_ones():
    assert list(NetConfig().to_dict()) == [
        "in_channels", "num_classes", "channels", "state_size",
        "vq_enabled", "vq_k"]


def test_config_loads_sidecar_with_retired_keys():
    # a sidecar written before the retired keys went: all 13 keys, each
    # retired one at the value the network still implements
    old = {**desk_config().to_dict(), **RETIRED_CONFIG_KEYS}
    assert len(old) == 13
    assert NetConfig.from_dict(old) == desk_config()
    for key, fixed in RETIRED_CONFIG_KEYS.items():
        other = not fixed if isinstance(fixed, bool) else 2 * fixed
        with pytest.raises(ValueError, match=key):
            NetConfig.from_dict({**old, key: other})


# ---------------------------------------------------------------- params

def shape_oracle_count(model):
    n = sum(int(np.prod(t.shape)) for t in model.named_parameters().values())
    if model.codebook is not None:
        n += int(np.prod(model.codebook.embeddings.shape))
    return n


def test_full_scale_param_count_pinned():
    m = Model(full_config(), seed=0)
    assert m.param_count() == FULL_PARAMS == shape_oracle_count(m)
    assert m.param_count(include_codebook=False) == FULL_PARAMS_NO_CB
    assert 25_000_000 <= m.param_count() <= 35_000_000


def test_desk_param_count_pinned():
    m = Model(desk_config(), seed=0)
    assert m.param_count() == DESK_PARAMS == shape_oracle_count(m)


def test_checkpoint_with_conv_biases_loads():
    # the benchmark's eval_window scores this desk checkpoint, which holds
    # the 27 ConvBlock biases older models had; the loader ignores them,
    # as it ignores every entry with no slot
    entries = load_checkpoint(Path(__file__).parents[1] / "perfbench" /
                              "data" / "eval_desk.mseg")
    m = Model(desk_config(), seed=0)
    m.load_state_dict(entries)
    assert set(entries) - set(m.state_dict()) == {
        n.replace(".gamma", ".b") for n in m.named_parameters()
        if n.endswith(".gamma")}
    for k, v in m.state_dict().items():
        np.testing.assert_array_equal(v, entries[k], err_msg=k)


def test_param_names_unique_and_complete():
    m = Model(tiny_config(), seed=0)
    named = m.named_parameters()
    assert len(named) == len(m.parameters())
    ids = {id(t) for t in named.values()}
    assert len(ids) == len(named)
    for name in ("enc1a.w", "enc6b.gamma", "dec5.proj.w", "head.w",
                 "bot_ssm.theta", "skip_ssm.scan.a_log"):
        assert name in named


# ---------------------------------------------------------------- norm

def norm_inputs(dtype, c=3, shape=(4, 5, 6), gamma=None, beta=None, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c,) + shape) * 7 + 3
    g = rng.uniform(0.5, 1.5, c) if gamma is None else gamma
    b = rng.normal(0.0, 0.5, c) if beta is None else beta
    return [Tensor(a, requires_grad=True, dtype=dtype)
            for a in (x, np.asarray(g, float), np.asarray(b, float))]


def chained_instance_norm(x, gamma, beta):
    """The composed epilogue: layer_norm, affine, then np.maximum(., 0)."""
    x_hat = T.layer_norm(x, axis=(1, 2, 3))
    g4, b4 = (t.data.reshape(-1, 1, 1, 1) for t in (gamma, beta))
    pre = Tensor._make(
        x_hat.data * g4 + b4, (x_hat, gamma, beta),
        lambda g: (g * g4, (g * x_hat.data).sum(axis=(1, 2, 3)),
                   g.sum(axis=(1, 2, 3))), "affine")
    mask = pre.data > 0
    return Tensor._make(np.maximum(pre.data, 0), (pre,),
                        lambda g: (g * mask,), "relu")


def test_instance_norm_standardizes_channels():
    # gamma = 1 and a beta far above any |x_hat|, so the relu clips nothing
    x, g, b = norm_inputs(np.float64, gamma=np.ones(3), beta=np.full(3, 50.0))
    out = instance_norm(x, g, b).data
    assert out.min() > 0
    for c in range(3):
        assert out[c].mean() - 50.0 == pytest.approx(0.0, abs=1e-10)
        assert out[c].std() == pytest.approx(1.0, abs=1e-4)


def test_instance_norm_affine():
    x = norm_inputs(np.float64, c=2, shape=(3, 3, 3), seed=1)[0]
    x_hat = T.layer_norm(x, axis=(1, 2, 3)).data
    g = Tensor(np.array([2.0, 0.5]), dtype=np.float64)
    b = Tensor(np.array([1.0, -1.0]), dtype=np.float64)
    out = instance_norm(x, g, b).data
    np.testing.assert_allclose(out[0], np.maximum(0, x_hat[0] * 2.0 + 1.0),
                               atol=1e-12)
    np.testing.assert_allclose(out[1], np.maximum(0, x_hat[1] * 0.5 - 1.0),
                               atol=1e-12)
    assert (out[1] == 0).any() and (out[1] > 0).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_instance_norm_forward_matches_the_chain_bit_for_bit(dtype):
    ins = norm_inputs(dtype)
    got = instance_norm(*ins).data
    want = chained_instance_norm(*ins).data
    assert got.dtype == dtype and (got == 0).any()
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def test_instance_norm_matches_the_chain_in_f64():
    probe = np.cos(np.arange(3 * 4 * 5 * 6)).reshape(3, 4, 5, 6)
    results = []
    for fn in (instance_norm, chained_instance_norm):
        ins = norm_inputs(np.float64, seed=2)
        out = fn(*ins)
        out.backward(probe)
        results.append([out.data] + [t.grad for t in ins])
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_instance_norm_backward_holds_only_per_channel_arrays():
    x, g, b = norm_inputs(np.float64, c=3)
    y = instance_norm(x, g, b)
    held = [c.cell_contents for c in y._backward_fn.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    big = [h for h in held if h.size > 3]
    assert len(big) == 2
    assert any(h is x.data for h in big) and any(h is y.data for h in big)


@pytest.mark.parametrize("conv_fn", [
    pytest.param(lambda x, w, b: conv.conv3d(x, w, b, 1), id="stride1"),
    pytest.param(lambda x, w, b: conv.conv3d(x, w, b, 2), id="stride2"),
    pytest.param(
        lambda x, w, b: conv.conv3d(conv.upsample_nearest3d(x), w, b),
        id="upsampled")])
def test_instance_norm_cancels_a_conv_bias(conv_fn):
    # the norm subtracts each channel's mean, so a per-channel bias before
    # it changes nothing and its gradient is zero, up to f64 rounding
    rng = np.random.default_rng(16)
    arrays = (rng.standard_normal((3, 4, 5, 6)),
              rng.standard_normal((4, 3, 3, 3, 3)),
              rng.uniform(0.5, 1.5, 4), rng.standard_normal(4))
    b = Tensor(3 * rng.standard_normal(4), requires_grad=True,
               dtype=np.float64)
    results = []
    for bias in (b, None):
        x, w, gamma, beta = (Tensor(a, requires_grad=True, dtype=np.float64)
                             for a in arrays)
        y = instance_norm(conv_fn(x, w, bias), gamma, beta)
        y.backward(gradcheck.cotangent(y))
        results.append([y.data] + [t.grad for t in (x, w, gamma, beta)])
    assert (results[1][0] == 0).any() and (results[1][0] > 0).any()
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
    assert np.abs(b.grad).max() < 1e-12


# ---------------------------------------------------------------- tape

def recorded_ops(fn) -> list:
    """Names of the ops built while fn runs, in order."""
    ops = []

    def hook(op, out, parents, backward_fn):
        ops.append(op)
        return backward_fn

    with T.op_hook(hook):
        fn()
    return ops


def test_conv_block_records_two_ops():
    m = Model(tiny_config(), seed=0)
    x = Tensor(np.random.default_rng(2).standard_normal((4, 4, 4, 4)))
    assert recorded_ops(lambda: m.enc[0][0](x)) == ["conv3d", "instance_norm"]


def test_no_conv_feeding_an_instance_norm_has_a_bias():
    m = Model(desk_config(), seed=0)
    logits = m.forward(
        np.random.default_rng(11).standard_normal((4, 32, 32, 32))).logits
    norms, seen, stack = [], set(), [logits]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node.op == "instance_norm":
                norms.append(node)
            stack.extend(node._parents)
    assert len(norms) == 27
    for norm in norms:
        conv_op = norm._parents[0]
        assert conv_op.op in ("conv3d", "upsample_conv3d")
        assert [p.ndim for p in conv_op._parents] == [4, 5]  # (x, w)
    assert logits.op == "conv3d" and len(logits._parents) == 3  # head bias


def test_upsampling_proj_records_the_fused_conv():
    m = Model(tiny_config(), seed=0)
    x = Tensor(np.random.default_rng(9).standard_normal((3, 16, 16, 16)))
    proj = m.dec[0]["proj"]
    ops = recorded_ops(lambda: proj.upsampled(x))
    assert ops == ["upsample_conv3d", "instance_norm"]
    # every upsampling level of a 32^3 forward folds at these widths
    ops = recorded_ops(lambda: m.forward(
        np.random.default_rng(10).standard_normal((4, 32, 32, 32))))
    assert ops.count("upsample_conv3d") == 4
    assert "upsample3d" not in ops


def test_scan_block_norm_is_one_op():
    p = init_ssm_params(np.random.default_rng(3), 3, 2)
    feat = Tensor(np.random.default_rng(4).standard_normal((3, 2, 2, 2)),
                  requires_grad=True)
    ops = recorded_ops(
        lambda: bidir_scan_block(feat, p, build_permutation((2, 2, 2))))
    assert ops.count("layer_norm") == 1
    assert not {"sqrt", "mean"} & set(ops)


def test_loss_and_commitment_are_one_op_each():
    logits = Tensor(np.random.default_rng(5).standard_normal((4, 2, 3, 2)),
                    requires_grad=True)
    labels = np.arange(12).reshape(2, 3, 2) % 4
    assert recorded_ops(lambda: ce_dice_loss(logits, labels)) == [
        "ce_dice_loss"]
    cb = make_codebook(np.random.default_rng(6), 4, 3)
    y = Tensor(np.random.default_rng(7).standard_normal((5, 3)).T,
               requires_grad=True)
    assert recorded_ops(lambda: quantize(y, cb)) == ["vq_ste", "vq_commit"]


def test_quantizer_reads_the_bottleneck_map_itself():
    # no shape ops around VQ: both its ops take the bottleneck map, and
    # the decoder's first conv takes the quantized map
    m = Model(desk_config(), seed=0)
    x = np.random.default_rng(11).standard_normal((4, 32, 32, 32))
    built = []

    def hook(op, out, parents, backward_fn):
        built.append((op, out, parents))
        return backward_fn

    with T.op_hook(hook):
        res = m.forward(x)
    ops = [op for op, _, _ in built]
    assert not {"reshape", "transpose"} & set(ops)
    assert ops.count("vq_ste") == ops.count("vq_commit") == 1
    at = ops.index("vq_ste")
    bot = built[at - 1][1]  # the bottleneck scan block's residual add
    c = m.cfg.channels[-1]
    assert built[at - 1][0] == "add" and bot.shape == (c, 2, 2, 2)
    assert built[at][2] == (bot,) and built[at + 1][2] == (bot,)
    q = built[at][1]
    assert q.shape == bot.shape and built[at + 2][2][0] is q
    assert res.commit_loss is built[at + 1][1]
    tokens, indices = res.vq_batch
    assert np.array_equal(tokens, bot.data.reshape(c, -1).T)
    assert indices.shape == (8,)


def recorded_step_ops() -> set:
    """Ops a model step (with loss) or a scan block step records."""
    def model_step():
        m = Model(tiny_config(), seed=1)
        x = Tensor(np.random.default_rng(6).standard_normal((4, 16, 16, 16)))
        res = m.forward(x)
        labels = np.arange(16 ** 3).reshape(16, 16, 16) % 4
        ce_dice_loss(res.logits, labels, res.commit_loss).total.backward()

    def scan_step():
        p = init_ssm_params(np.random.default_rng(7), 3, 2)
        feat = Tensor(np.random.default_rng(8).standard_normal((3, 2, 2, 2)),
                      requires_grad=True)
        out = bidir_scan_block(feat, p, build_permutation((2, 2, 2)))
        out.backward(np.ones(out.shape))

    return set(recorded_ops(model_step)) | set(recorded_ops(scan_step))


@functools.cache
def checked_ops() -> frozenset:
    """Ops the gradient checks record, composed_forward aside: it runs the
    model again and would add no op."""
    checks = [fn for name, fn in suite() if name != "composed_forward"]
    return frozenset(recorded_ops(lambda: [fn() for fn in checks]))


def test_every_recorded_op_has_a_gradient_check():
    # criterion 1 says every op passes an f64 FD check; an op the model
    # or a scan block records that no check runs would slip past it
    assert sorted(recorded_step_ops() - checked_ops()) == []


def test_every_gradient_check_covers_a_recorded_op():
    # the reverse: an op that only the checks record outlives the code
    # it was for
    assert sorted(checked_ops() - recorded_step_ops()) == []


# ---------------------------------------------------------------- one-hot

def test_one_hot_places_ones():
    labels = np.array([[[0, 1], [2, 3]]])
    oh = one_hot(labels, 4, np.float64)
    assert oh.shape == (4, 1, 2, 2)
    np.testing.assert_array_equal(oh.sum(axis=0), 1.0)
    for k in range(4):
        np.testing.assert_array_equal(oh[k] == 1.0, labels == k)


def test_one_hot_rejects_out_of_range():
    with pytest.raises(ValueError):
        one_hot(np.array([4]), 4, np.float64)
    with pytest.raises(ValueError):
        one_hot(np.array([-1]), 4, np.float64)


# ---------------------------------------------------------------- loss

def loss_oracle(logits, labels):
    """Independent recomputation of both loss components."""
    p = softmax_np(logits)
    oh = one_hot(labels, logits.shape[0], np.float64)
    ce = -(oh * np.log(p)).sum(axis=0).mean()
    scores = []
    for c in FOREGROUND_CLASSES:
        inter = (p[c] * oh[c]).sum()
        size = (p[c] ** 2).sum() + (oh[c] ** 2).sum()
        scores.append((2 * inter + DICE_EPS) / (size + DICE_EPS))
    return float(ce), float(1.0 - np.mean(scores))


def test_ce_dice_matches_oracle():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((4, 6, 5, 4))
    labels = rng.integers(0, 4, size=(6, 5, 4))
    rep = ce_dice_loss(Tensor(logits, dtype=np.float64), labels)
    ce, dl = loss_oracle(logits, labels)
    assert float(rep.ce.data) == pytest.approx(ce, rel=1e-10)
    assert float(rep.dice_loss.data) == pytest.approx(dl, rel=1e-10)
    assert float(rep.total.data) == pytest.approx(ce + dl, rel=1e-10)
    assert set(rep.floats()) == {"ce", "dice", "commit", "total"}


def chained_loss(z, labels, commit):
    """(ce, dice_loss, total) as the chain of tape primitives computed
    them: log-softmax, mul, sum, mean, neg; exp, slice, mul, sum, add,
    div, mean, sub; add, mul. Constants take the logits' dtype."""
    def c(v):
        return np.asarray(v, dtype=z.dtype)
    oh = one_hot(labels, z.shape[0], z.dtype)
    shifted = z - z.max(axis=0, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=0, keepdims=True))
    ce = -np.asarray((logp * oh).sum(axis=0).mean())
    p_fg, g_fg = np.exp(logp)[1:4], oh[1:4]
    inter = (p_fg * g_fg).sum(axis=(1, 2, 3))
    sizes = ((p_fg * p_fg).sum(axis=(1, 2, 3))
             + (g_fg ** 2).sum(axis=(1, 2, 3)))
    dice = (inter * c(2.0) + c(DICE_EPS)) / (sizes + c(DICE_EPS))
    dice_loss = c(1.0) - np.asarray(dice.mean())
    return ce, dice_loss, (ce + dice_loss) + commit * c(0.25)


def chained_loss_grad(z, labels):
    """d total / d logits through each chain primitive's adjoint in turn."""
    oh = one_hot(labels, z.shape[0], z.dtype)
    shifted = z - z.max(axis=0, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=0, keepdims=True))
    p = np.exp(logp)
    p_fg, g_fg = p[1:4], oh[1:4]
    num = 2 * (p_fg * g_fg).sum(axis=(1, 2, 3)) + DICE_EPS
    den = ((p_fg ** 2).sum(axis=(1, 2, 3)) + (g_fg ** 2).sum(axis=(1, 2, 3))
           + DICE_EPS)
    g_dice = np.full(3, -1.0 / 3)                          # 1 - mean
    g_num, g_den = g_dice / den, -g_dice * num / den ** 2  # div
    col = (3, 1, 1, 1)
    g_p = np.zeros_like(p)                                 # the fg slice
    g_p[1:4] = (2 * g_num.reshape(col) * g_fg
                + 2 * g_den.reshape(col) * p_fg)
    g_logp = g_p * p - oh / z[0].size                      # exp; ce
    return g_logp - p * g_logp.sum(axis=0, keepdims=True)  # log-softmax


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_forward_matches_the_chain_bit_for_bit(dtype):
    rng = np.random.default_rng(7)
    z = rng.normal(0, 3, (4, 6, 5, 4)).astype(dtype)
    labels = rng.integers(0, 4, size=(6, 5, 4))
    commit = np.asarray(0.37, dtype=dtype)
    rep = ce_dice_loss(Tensor(z, dtype=dtype), labels,
                       Tensor(commit, dtype=dtype))
    for got, want in zip((rep.ce, rep.dice_loss, rep.total),
                         chained_loss(z, labels, commit)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.data, want)


def test_loss_gradients_match_the_chain_in_f64():
    rng = np.random.default_rng(8)
    z = rng.normal(0, 3, (4, 6, 5, 4))
    labels = rng.integers(0, 4, size=(6, 5, 4))
    logits = Tensor(z, requires_grad=True, dtype=np.float64)
    commit = Tensor(np.asarray(0.37), requires_grad=True, dtype=np.float64)
    ce_dice_loss(logits, labels, commit).total.backward()
    want = chained_loss_grad(z, labels)
    assert np.abs(logits.grad - want).max() <= 1e-12 * np.abs(want).max()
    assert float(commit.grad) == 0.25


def test_ce_at_zero_logits_is_log_k():
    labels = np.zeros((4, 4, 4), dtype=np.int64)
    rep = ce_dice_loss(Tensor(np.zeros((4, 4, 4, 4)), dtype=np.float64), labels)
    assert float(rep.ce.data) == pytest.approx(np.log(4.0), abs=1e-12)


def test_loss_vanishes_on_confident_correct_prediction():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=(5, 5, 5))
    logits = 50.0 * one_hot(labels, 4, np.float64)
    rep = ce_dice_loss(Tensor(logits, dtype=np.float64), labels)
    assert float(rep.ce.data) < 1e-9
    assert float(rep.dice_loss.data) < 1e-3


def test_dice_rewards_correct_argmax_at_moderate_confidence():
    # right argmax at prob 0.7 everywhere, classes in equal quarters:
    # per-class score (2*0.7*16)/((0.49*16 + 0.01*48) + 16) ~ 0.92, well
    # above the 0.70 a linear (unsquared) denominator would give
    labels = np.arange(64, dtype=np.int64).reshape(4, 4, 4) % 4
    logits = np.log(0.7 / 0.1) * one_hot(labels, 4, np.float64)
    rep = ce_dice_loss(Tensor(logits, dtype=np.float64), labels)
    want = (2 * 0.7 * 16 + DICE_EPS) / (0.49 * 16 + 0.01 * 48 + 16 + DICE_EPS)
    assert 1.0 - float(rep.dice_loss.data) == pytest.approx(want, rel=1e-12)
    assert want > 0.9


def test_commit_term_scales_total():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.standard_normal((4, 4, 4, 4)), dtype=np.float64)
    labels = rng.integers(0, 4, size=(4, 4, 4))
    commit = Tensor(np.array(0.8), dtype=np.float64)
    rep = ce_dice_loss(logits, labels, commit)
    base = ce_dice_loss(logits, labels)
    assert float(rep.total.data) == pytest.approx(
        float(base.total.data) + 0.25 * 0.8, rel=1e-10)
    with pytest.raises(TypeError):  # no silent f32/f64 mixing
        ce_dice_loss(logits, labels, Tensor(np.array(0.8), dtype=np.float32))


def test_soft_dice_agrees_with_loss():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((4, 6, 6, 6))
    labels = rng.integers(0, 4, size=(6, 6, 6))
    rep = ce_dice_loss(Tensor(logits, dtype=np.float64), labels)
    assert soft_dice(logits, labels) == pytest.approx(
        1.0 - float(rep.dice_loss.data), rel=1e-10)


def test_soft_dice_perfect_prediction():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 4, size=(5, 5, 5))
    logits = 50.0 * one_hot(labels, 4, np.float64)
    assert soft_dice(logits, labels) == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------- model

def test_model_deterministic_per_seed():
    a = Model(tiny_config(), seed=5)
    b = Model(tiny_config(), seed=5)
    c = Model(tiny_config(), seed=6)
    sa, sb, sc = a.state_dict(), b.state_dict(), c.state_dict()
    assert sorted(sa) == sorted(sb) == sorted(sc)
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k])
    assert any(not np.array_equal(sa[k], sc[k]) for k in sa)


def test_forward_shapes_and_validation():
    m = Model(tiny_config(), seed=0)
    x = np.random.default_rng(7).standard_normal((4, 32, 32, 32)).astype(np.float32)
    out = m.forward(x)
    assert out.logits.shape == (4, 32, 32, 32)
    assert out.commit_loss is not None
    with pytest.raises(ValueError):
        m.forward(x[:3])
    with pytest.raises(ValueError):
        m.forward(np.zeros((4, 30, 32, 32), np.float32))
    with pytest.raises(ValueError):
        m.forward(np.zeros((4, 32, 32), np.float32))


def test_untrained_model_predicts_uniform():
    # zero-initialized head: logits identically zero before training
    m = Model(tiny_config(), seed=1)
    x = np.random.default_rng(8).standard_normal((4, 32, 32, 32)).astype(np.float32)
    out = m.forward(x)
    np.testing.assert_array_equal(out.logits.data, 0.0)


def test_vq_disabled_drops_commit():
    m = Model(tiny_config(vq_enabled=False), seed=0)
    x = np.random.default_rng(9).standard_normal((4, 32, 32, 32)).astype(np.float32)
    out = m.forward(x)
    assert out.commit_loss is None
    assert out.vq_batch is None
    assert m.codebook is None


def test_ema_step_seeds_codebook_then_updates():
    # vq_k = 16 > the 8 bottleneck tokens of a 32-cube, so after seeding
    # some entries stay unassigned and the next EMA update must shrink them
    m = Model(tiny_config(vq_k=16), seed=2)
    assert not m.codebook.initialized
    x = np.random.default_rng(11).standard_normal((4, 32, 32, 32)).astype(np.float32)
    out = m.forward(x)
    m.ema_step(out)
    assert m.codebook.initialized
    before = m.codebook.ema_cluster_size.copy()
    out = m.forward(x)
    m.ema_step(out)
    assert not np.array_equal(m.codebook.ema_cluster_size, before)


def test_state_dict_roundtrip_bit_exact():
    cfg = tiny_config()
    a = Model(cfg, seed=3)
    x = np.random.default_rng(12).standard_normal((4, 32, 32, 32)).astype(np.float32)
    out = a.forward(x)
    a.ema_step(out)
    ref = a.forward(x).logits.data

    b = Model(cfg, seed=4)
    assert not np.array_equal(b.forward(x).logits.data, ref) or True
    b.load_state_dict(a.state_dict())
    np.testing.assert_array_equal(b.forward(x).logits.data, ref)
    assert b.codebook.initialized


def test_load_state_dict_validates():
    m = Model(tiny_config(), seed=0)
    sd = m.state_dict()
    missing = dict(sd)
    del missing["head.w"]
    with pytest.raises(KeyError):
        m.load_state_dict(missing)
    wrong = dict(sd)
    wrong["head.w"] = np.zeros((1, 2, 3))
    with pytest.raises(ValueError):
        m.load_state_dict(wrong)


def test_load_state_dict_checks_codebook_arrays():
    sd = Model(desk_config(), seed=1).state_dict()
    m32 = Model(desk_config(vq_k=32), seed=0)
    w = m32.named_parameters()["enc1a.w"]
    before = w.data.copy()
    assert not np.array_equal(sd["enc1a.w"], before)
    with pytest.raises(ValueError, match="vq.embeddings"):
        m32.load_state_dict(sd)
    np.testing.assert_array_equal(w.data, before)  # nothing was assigned
    m = Model(tiny_config(), seed=0)
    missing = m.state_dict()
    del missing["vq.ema_embed_sum"]
    with pytest.raises(KeyError, match="vq.ema_embed_sum"):
        m.load_state_dict(missing)


# ---------------------------------------------------------------- windows

def test_sliding_window_degenerates_to_forward():
    m = Model(tiny_config(), seed=5)
    x = np.random.default_rng(13).standard_normal((4, 32, 32, 32)).astype(np.float32)
    np.testing.assert_array_equal(
        sliding_window_infer(m, x, (32, 32, 32)),
        m.forward(x).logits.data)


def test_sliding_window_covers_every_voxel():
    m = Model(tiny_config(), seed=6)
    x = np.random.default_rng(14).standard_normal((4, 48, 48, 32)).astype(np.float32)
    out = sliding_window_infer(m, x, (32, 32, 32))
    assert out.shape == (4, 48, 48, 32)
    # a missed voxel would divide by zero and show up as non-finite
    assert np.isfinite(out).all()


def test_sliding_window_keeps_f64_logits():
    with T.default_dtype(np.float64):
        m = Model(tiny_config(), seed=6)
        x = np.random.default_rng(14).standard_normal((4, 48, 32, 32))
        out = sliding_window_infer(m, x.astype(np.float32), (32, 32, 32))
    assert out.dtype == np.float64


def test_sliding_window_rejects_oversized_window():
    m = Model(tiny_config(), seed=7)
    x = np.zeros((4, 32, 32, 32), np.float32)
    with pytest.raises(ValueError):
        sliding_window_infer(m, x, (48, 32, 32))


@pytest.mark.parametrize("fn, removed", [
    (conv.upsample_nearest3d, "factor"),
    (instance_norm, "eps"),
    (T.layer_norm, "eps"),
    (sliding_window_infer, "overlap"),
    (ce_dice_loss, "commit_weight"),
    (Model.forward, "train"),
    (phantom.generate_phantom, "noise_sigma"),
    (gradcheck.check_gradients, "rtol"),
    (gradcheck.check_gradients, "atol"),
    (gradcheck.check_gradients, "probe"),
    (AdamW, "eps"),
])
def test_fixed_settings_are_constants(fn, removed):
    # each is one value everywhere the package calls it, so not a parameter
    assert removed not in inspect.signature(fn).parameters
