"""Encoder-decoder segmentation network with scan blocks at two depths.

Six convolution stages extract local features: stage 1 keeps full
resolution, stages 2-5 each halve it, stage 6 widens channels at the
coarsest grid. Global context is added only where sequences are short:
one bidirectional Morton-scan block on the bottleneck (1/16 resolution)
and one on the deepest skip path (1/8), the latter turning that skip from
a passive copy into a context-aware branch. Bottleneck features are
vector-quantized before decoding. The decoder mirrors the encoder with
concatenated skips; each level's first conv runs on the level below
upsampled 2x nearest-neighbor, as one op that folds the upsample into the
kernel (`upsample_conv3d`). The head is a 1x1x1 conv initialized to zero
so an untrained model predicts the uniform distribution everywhere.

A ConvBlock is a conv3d without bias (the norm cancels one) and its
epilogue, instance norm, affine and ReLU: one tape op (`instance_norm`)
whose backward recomputes the normalized input instead of storing it.

All learnable arrays live in named Tensors; `state_dict` collects them
(plus codebook EMA state) for checkpointing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensor as T
from .conv import conv3d, upsample_conv3d
from .conv import upsample_nearest3d  # noqa: F401  bound by perfbench's tracer
from .morton import build_permutation
from .rng import make_rng
from .ssm import bidir_scan_block, init_ssm_params
from .tensor import Tensor
from .vq import (DEFAULT_COMMIT_WEIGHT, DEFAULT_DECAY, DEFAULT_LAPLACE_EPS,
                 ema_update, init_from_batch, make_codebook, quantize)

DICE_EPS = 1e-5
WINDOW_OVERLAP = 0.5  # fraction of a window shared with its neighbor
FOREGROUND_CLASSES = (1, 2, 3)

# keys that older net_config.json sidecars carry, each with the one value
# this network implements; from_dict accepts them only at that value
RETIRED_CONFIG_KEYS = {
    "vq_decay": DEFAULT_DECAY, "vq_laplace_eps": DEFAULT_LAPLACE_EPS,
    "commit_weight": DEFAULT_COMMIT_WEIGHT, "vq_on_skip": False,
    "use_dwconv": True, "use_d_skip": True, "separate_reverse": False}


@dataclass
class NetConfig:
    in_channels: int = 4
    num_classes: int = 4
    channels: tuple = (16, 32, 64, 128, 256, 512)
    state_size: int = 16
    vq_enabled: bool = True
    vq_k: int = 512

    # stage strides: full, /2, /4, /8, /16, /16
    STRIDES = (1, 2, 2, 2, 2, 1)

    def __post_init__(self):
        if len(self.channels) != 6:
            raise ValueError("exactly six encoder stages are supported")
        named = [(k, getattr(self, k)) for k in
                 ("in_channels", "num_classes", "state_size", "vq_k")]
        for name, v in named + [("channels", c) for c in self.channels]:
            if type(v) is not int or v < 1:  # bool and float are not int
                raise ValueError(f"net config '{name}' must be a positive "
                                 f"integer, got {v!r}")
        if type(self.vq_enabled) is not bool:
            raise ValueError("net config 'vq_enabled' must be true or false")

    @property
    def down_factor(self) -> int:
        return 16

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["channels"] = list(self.channels)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "NetConfig":
        """The config to_dict wrote: every field, and no unknown key."""
        if not isinstance(d, dict):
            raise ValueError("net config must be a JSON object")
        d = dict(d)
        for key, fixed in RETIRED_CONFIG_KEYS.items():
            if key in d and d.pop(key) != fixed:
                raise ValueError(f"net config '{key}' must be {fixed!r}: "
                                 "the network has no other setting")
        names = {f.name for f in fields(cls)}
        wrong = ([f"no field '{k}'" for k in sorted(names - d.keys())]
                 + [f"unknown field '{k}'" for k in sorted(d.keys() - names)])
        if wrong:
            raise ValueError("net config has " + ", ".join(wrong))
        d["channels"] = tuple(d["channels"])
        return cls(**d)


def full_config(**overrides) -> NetConfig:
    return replace(NetConfig(), **overrides)


def desk_config(**overrides) -> NetConfig:
    """Shrunk ladder for laptop-speed runs; same topology as full scale."""
    cfg = NetConfig(channels=(4, 8, 16, 32, 64, 128), vq_k=64)
    return replace(cfg, **overrides)


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """relu(gamma * x_hat + beta): per-channel norm over the spatial axes,
    affine and ReLU as one op.

    x_hat = (x - mean) / sigma is `T.standardize` per channel. The tape
    keeps only the per-channel mean and sigma besides x and the output y:
    backward recomputes x_hat and takes the ReLU mask from y > 0, then
    g_y = g [y > 0], g_gamma = sum(g_y x_hat), g_beta = sum(g_y) and
    gx = (gamma g_y - mean(gamma g_y) - x_hat mean(gamma g_y x_hat)) / sigma.
    """
    axes = (1, 2, 3)
    xd, gam = x.data, gamma.data
    col = (x.shape[0], 1, 1, 1)
    n = xd[0].size
    y, mean, sigma = T.standardize(xd, axes)
    y *= gam.reshape(col)
    y += beta.data.reshape(col)
    np.maximum(y, 0, out=y)

    def bwd(g):
        g = g * (y > 0)
        x_hat = xd - mean
        x_hat /= sigma
        g_beta = g.sum(axis=axes)
        g_gamma = (g * x_hat).sum(axis=axes)
        g *= gam.reshape(col)
        g -= (gam * g_beta / n).reshape(col)
        x_hat *= (gam * g_gamma / n).reshape(col)
        g -= x_hat
        g /= sigma
        return g, g_gamma, g_beta

    return Tensor._make(y, (x, gamma, beta), bwd, "instance_norm")


class ConvBlock:
    """3x3x3 conv3d (pad 1, no bias) -> instance_norm (norm, affine, relu)."""

    def __init__(self, rng: np.random.Generator, cin: int, cout: int):
        std = (2.0 / (cin * 27)) ** 0.5
        self.w = Tensor(rng.normal(0.0, std, size=(cout, cin, 3, 3, 3)),
                        requires_grad=True)
        self.gamma = Tensor(np.ones(cout), requires_grad=True)
        self.beta = Tensor(np.zeros(cout), requires_grad=True)

    def __call__(self, x: Tensor, stride: int = 1) -> Tensor:
        return instance_norm(conv3d(x, self.w, stride=stride),
                             self.gamma, self.beta)

    def upsampled(self, x: Tensor) -> Tensor:
        """The block on upsample_nearest3d(x), the upsample folded into
        the conv (`upsample_conv3d`)."""
        return instance_norm(upsample_conv3d(x, self.w), self.gamma,
                             self.beta)


@dataclass
class ForwardResult:
    logits: Tensor
    commit_loss: Tensor | None           # None when VQ is off
    vq_batch: tuple | None = None        # (tokens, indices) when VQ is on


class Model:
    """The assembled network; owns parameters, codebooks and perm cache."""

    def __init__(self, cfg: NetConfig, seed: int = 0):
        self.cfg = cfg
        self.seed = seed
        rng = make_rng(seed, 0)
        ch = cfg.channels

        self.enc = []
        cin = cfg.in_channels
        for c in ch:
            self.enc.append((ConvBlock(rng, cin, c), ConvBlock(rng, c, c)))
            cin = c

        self.skip_ssm = init_ssm_params(rng, ch[3], cfg.state_size)
        self.bot_ssm = init_ssm_params(rng, ch[5], cfg.state_size)

        # decoder level i fuses with encoder stage i (1-based); level 5
        # works at the bottleneck resolution, so no upsample there
        self.dec = []
        skip_ch = [ch[0], ch[1], ch[2], ch[3], ch[4]]
        upper = [ch[1], ch[2], ch[3], ch[4], ch[5]]
        for lo, hi in zip(skip_ch, upper):
            self.dec.append({
                "proj": ConvBlock(rng, hi, lo),
                "fuse": ConvBlock(rng, 2 * lo, lo),
                "refine": ConvBlock(rng, lo, lo)})

        self.head_w = Tensor(np.zeros((cfg.num_classes, ch[0], 1, 1, 1)),
                             requires_grad=True)
        self.head_b = Tensor(np.zeros(cfg.num_classes), requires_grad=True)

        self.codebook = (make_codebook(rng, cfg.vq_k, ch[5])
                         if cfg.vq_enabled else None)
        self._vq_rng = make_rng(seed, 3)
        self._perms = {}

    # -- parameter bookkeeping --------------------------------------------

    def named_parameters(self) -> dict:
        parts = {}
        for i, (a, b) in enumerate(self.enc, start=1):
            parts[f"enc{i}a"], parts[f"enc{i}b"] = a, b
        parts["skip_ssm"], parts["bot_ssm"] = self.skip_ssm, self.bot_ssm
        for i, level in enumerate(self.dec, start=1):
            parts[f"dec{i}"] = level
        parts["head"] = {"w": self.head_w, "b": self.head_b}
        return T.named_tensors(parts)

    def parameters(self) -> list:
        return list(self.named_parameters().values())

    def _state_slots(self) -> dict:
        """name -> (owner, attribute) of every array a checkpoint holds."""
        slots = {k: (t, "data") for k, t in self.named_parameters().items()}
        if self.codebook is not None:
            for attr in ("embeddings", "ema_cluster_size", "ema_embed_sum"):
                slots[f"vq.{attr}"] = (self.codebook, attr)
        return slots

    def state_dict(self) -> dict:
        out = {k: getattr(owner, attr)
               for k, (owner, attr) in self._state_slots().items()}
        if self.codebook is not None:
            out["vq.initialized"] = np.array(
                [1.0 if self.codebook.initialized else 0.0], dtype=np.float32)
        return out

    def load_state_dict(self, entries: dict) -> None:
        """Copy a state in. Every slot is checked before any is assigned,
        so a state that does not fit leaves the model unchanged. Entries
        with no slot (`opt.*`, older ConvBlocks' `*.b`) are ignored."""
        slots = self._state_slots()
        for k, (owner, attr) in slots.items():
            if k not in entries:
                raise KeyError(f"checkpoint is missing '{k}'")
            arr, cur = entries[k], getattr(owner, attr)
            if tuple(arr.shape) != cur.shape:
                raise ValueError(f"shape mismatch for '{k}': "
                                 f"{arr.shape} vs {cur.shape}")
        if self.codebook is not None:
            initialized = bool(entries["vq.initialized"][0] > 0.5)
        for k, (owner, attr) in slots.items():
            # a copy: the optimizer updates parameters in place
            setattr(owner, attr,
                    np.array(entries[k], dtype=getattr(owner, attr).dtype))
        if self.codebook is not None:
            self.codebook.initialized = initialized

    def param_count(self, include_codebook: bool = True) -> int:
        n = sum(t.size for t in self.parameters())
        if include_codebook and self.codebook is not None:
            n += self.codebook.embeddings.size
        return n

    def _perm(self, dims: tuple):
        if dims not in self._perms:
            self._perms[dims] = build_permutation(dims)
        return self._perms[dims]

    # -- forward ------------------------------------------------------------

    def forward(self, x) -> ForwardResult:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.ndim != 4 or x.shape[0] != self.cfg.in_channels:
            raise ValueError(f"expected ({self.cfg.in_channels}, X, Y, Z) "
                             f"input, got {x.shape}")
        if any(s % self.cfg.down_factor for s in x.shape[1:]):
            raise ValueError(f"spatial extents {x.shape[1:]} must be "
                             f"divisible by {self.cfg.down_factor}")

        feats = []
        h = x
        for (blk_a, blk_b), stride in zip(self.enc, NetConfig.STRIDES):
            h = blk_b(blk_a(h, stride=stride))
            feats.append(h)
        e1, e2, e3, e4, e5, e6 = feats

        skip4 = bidir_scan_block(e4, self.skip_ssm, self._perm(e4.shape[1:]))
        bot = bidir_scan_block(e6, self.bot_ssm, self._perm(e6.shape[1:]))

        commit = vq_batch = None
        if self.codebook is not None:
            res = quantize(bot, self.codebook)
            bot, commit = res.quantized, res.commit_loss
            vq_batch = (res.tokens, res.indices)

        skips = [e1, e2, e3, skip4, e5]
        h = bot
        for level in range(4, -1, -1):
            blocks = self.dec[level]
            proj = blocks["proj"]
            h = proj(h) if level == 4 else proj.upsampled(h)
            h = blocks["fuse"](T.concat([h, skips[level]], axis=0))
            h = blocks["refine"](h)

        logits = conv3d(h, self.head_w, self.head_b, stride=1)
        return ForwardResult(logits=logits, commit_loss=commit,
                             vq_batch=vq_batch)

    def ema_step(self, result: ForwardResult) -> None:
        """Apply the codebook EMA update recorded during a forward.

        An unseeded codebook is initialized from the recorded tokens
        (data-dependent init); a seeded one takes a normal EMA update.
        """
        if result.vq_batch is None:
            return
        tokens, indices = result.vq_batch
        if not self.codebook.initialized:
            init_from_batch(self.codebook, tokens, self._vq_rng)
        else:
            ema_update(self.codebook, tokens, indices)


# -- loss --------------------------------------------------------------------


@dataclass
class LossReport:
    ce: Tensor
    dice_loss: Tensor
    commit: Tensor
    total: Tensor

    def floats(self) -> dict:
        return {"ce": float(self.ce.data), "dice": float(self.dice_loss.data),
                "commit": float(self.commit.data),
                "total": float(self.total.data)}


def one_hot(labels: np.ndarray, num_classes: int, dtype) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")
    oh = np.zeros((num_classes,) + labels.shape, dtype=dtype)
    np.put_along_axis(oh, labels[None].astype(np.int64), 1.0, axis=0)
    return oh


def ce_dice_loss(logits: Tensor, labels: np.ndarray,
                 commit: Tensor | None = None) -> LossReport:
    """Voxel cross-entropy plus soft-Dice over the foreground classes.

    dice_loss = 1 - mean_c D_c,  D_c = (2*sum(P_c G_c) + eps) / S_c,
    S_c = sum(P_c^2) + sum(G_c^2) + eps
    over c in {1, 2, 3}; total = ce + dice_loss + 0.25 * commit, the
    weight being vq.DEFAULT_COMMIT_WEIGHT.
    The squared-denominator form keeps the score a measure of voxel
    agreement rather than of softmax sharpness: a prediction with the
    right argmax everywhere scores ~1 even at moderate confidence.

    total is one op with parents (logits, commit); ce and dice_loss are
    leaves. With V voxels and C foreground classes the backward is
    g_P_c = 2 (P_c D_c - G_c) / (C S_c) on the foreground (0 on the
    background), g_logits = g (P (g_P - sum_k P_k g_P_k) + (P - G) / V)
    and g_commit = 0.25 g; the tape keeps P, G and the per-class D, S.
    """
    z = logits.data
    dt = z.dtype.type
    commit = Tensor(np.zeros(()), dtype=z.dtype) if commit is None else commit
    if commit.dtype != z.dtype:
        raise TypeError(f"commit is {commit.dtype}, the logits {z.dtype}")
    oh = one_hot(labels, z.shape[0], z.dtype)
    shifted = z - z.max(axis=0, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=0, keepdims=True))
    ce = -(logp * oh).sum(axis=0).mean()

    p = np.exp(logp)
    fg = slice(FOREGROUND_CLASSES[0], FOREGROUND_CLASSES[-1] + 1)  # contiguous
    p_fg, g_fg = p[fg], oh[fg]
    axes, eps = (1, 2, 3), dt(DICE_EPS)
    den = (p_fg * p_fg).sum(axis=axes) + (g_fg ** 2).sum(axis=axes) + eps
    dice = ((p_fg * g_fg).sum(axis=axes) * dt(2.0) + eps) / den
    dice_loss = dt(1.0) - dice.mean()

    def bwd(g):
        gp = np.zeros_like(p)
        gp[fg] = (p_fg * dice[:, None, None, None] - g_fg) * (
            2.0 / (dice.size * den))[:, None, None, None]
        gz = (gp - (p * gp).sum(axis=0, keepdims=True)) * p
        gz += (p - oh) / p[0].size
        return gz * g, g * dt(DEFAULT_COMMIT_WEIGHT)

    total = ce + dice_loss + commit.data * dt(DEFAULT_COMMIT_WEIGHT)
    return LossReport(Tensor(ce, dtype=z.dtype),
                      Tensor(dice_loss, dtype=z.dtype), commit,
                      Tensor._make(total, (logits, commit), bwd,
                                   "ce_dice_loss"))


def soft_dice(logits_data: np.ndarray, labels: np.ndarray) -> float:
    """Mean foreground soft Dice of raw logits (no tape); eval helper.

    Evaluated through ce_dice_loss, so train and eval report the one
    definition.
    """
    with T.no_grad():
        rep = ce_dice_loss(Tensor(logits_data, dtype=logits_data.dtype),
                           labels)
    return 1.0 - float(rep.dice_loss.data)


def sliding_window_infer(model: Model, volume: np.ndarray,
                         window: tuple) -> np.ndarray:
    """Tile the volume with 50%-overlap windows and average the logits.

    Windows are placed on a regular stride grid with an extra end-aligned
    window per axis when the stride does not land exactly; every voxel is
    covered at least once. window == volume shape is one window, so the
    result equals a plain forward pass.
    """
    c, xe, ye, ze = volume.shape
    wx, wy, wz = window
    if wx > xe or wy > ye or wz > ze:
        raise ValueError(f"window {window} exceeds volume {volume.shape[1:]}")

    def starts(extent, w):
        stride = max(1, int(round(w * (1.0 - WINDOW_OVERLAP))))
        ss = list(range(0, extent - w + 1, stride))
        if ss[-1] != extent - w:
            ss.append(extent - w)
        return ss

    # the tape refuses mixed dtypes, so logits take the parameters' dtype
    dtype = model.head_w.data.dtype
    acc = np.zeros((model.cfg.num_classes, xe, ye, ze), dtype=dtype)
    cnt = np.zeros((xe, ye, ze), dtype=dtype)
    with T.no_grad():
        for sx in starts(xe, wx):
            for sy in starts(ye, wy):
                for sz in starts(ze, wz):
                    crop = volume[:, sx:sx + wx, sy:sy + wy, sz:sz + wz]
                    out = model.forward(np.ascontiguousarray(crop)).logits.data
                    acc[:, sx:sx + wx, sy:sy + wy, sz:sz + wz] += out
                    cnt[sx:sx + wx, sy:sy + wy, sz:sz + wz] += 1.0
    return acc / cnt[None]
