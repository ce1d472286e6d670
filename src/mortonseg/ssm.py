"""Selective state-space scan (S6) with bidirectional fusion.

One scan direction keeps, per channel e, a hidden state h in R^N evolving
along the sequence:

    delta_k = softplus(s_k W_delta + b_delta)        (L, E)  step sizes
    B_k     = s_k W_B ;  C_k = s_k W_C               (L, N)  input/output maps
    A       = -exp(A_log)                            (E, N)  diagonal, < 0
    Abar_k  = exp(delta_k * A)                       per-step decay in (0,1]
    h_k     = Abar_k * h_{k-1} + delta_k * B_k * s_k
    y_k     = <C_k, h_k> + D * s_k

B, C and delta depend on the input, so the state decides token by token
what to keep; A < 0 guarantees |Abar| < 1 and bounded states. The reverse
direction is the same recurrence run on the flipped sequence and flipped
back, inside the one op, which makes forward/reverse duality exact by
construction rather than by a second code path.

Discretization, recurrence and output map are one tape op with a
hand-derived backward, ``linear_recurrence``. It walks the sequence
SCAN_CHUNK tokens at a time, so the (L, E, N) decays, inputs and states
of a long sequence never exist at once: the tape keeps only the state
entering each chunk, and backward recomputes a chunk's states from it
(recompute-for-memory, as in Mamba's hardware-aware scan). Inside a
chunk the states come from a token loop rather than from a cumulative
sum of log-decays: one step's delta * |A| can exceed 10, so the exp of
a running sum leaves float32 range within a few tokens.

``selective_scan`` wraps it in one tape op per direction, as Mamba's
fused kernel does: the projections, softplus, A and the D skip are numpy
steps around the recurrence, which stays an op of its own that hooks
see, and backward runs its recorded adjoint before theirs. The op keeps
its input and the recurrence's step sizes; backward recomputes the
projection that softplus' derivative needs. ``gated_fusion`` is one op
too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .conv import dwconv1d_causal
from .morton import MortonPermutation, gather_sequence, scatter_back
from .tensor import Tensor

DWCONV_WIDTH = 4
SCAN_CHUNK = 64  # tokens whose (E, N) decays and states exist at once


@dataclass
class ScanParams:
    """Learnable parameters of one scan direction over E channels."""
    a_log: Tensor    # (E, N); A = -exp(a_log)
    w_b: Tensor      # (E, N)
    w_c: Tensor      # (E, N)
    w_delta: Tensor  # (E, E)
    b_delta: Tensor  # (E,)
    d_skip: Tensor   # (E,) direct feedthrough D

    def tensors(self) -> list[Tensor]:
        return list(T.named_tensors(self).values())


@dataclass
class SsmParams:
    """Full bidirectional block: one scan parameter set, gate, front conv.

    The forward and reverse scans share ``scan``, so the reverse direction
    adds no parameters.
    """
    scan: ScanParams
    theta: Tensor   # (E,) fusion gate, alpha = sigmoid(theta)
    conv_w: Tensor  # (E, DWCONV_WIDTH) depthwise causal conv
    conv_b: Tensor  # (E,)

    def tensors(self) -> list[Tensor]:
        return list(T.named_tensors(self).values())


def init_ssm_params(rng: np.random.Generator, e: int, n: int) -> SsmParams:
    mk = lambda a: Tensor(a, requires_grad=True)
    # S4D-real initialization: per channel, state k decays at rate k+1
    a_log = np.tile(np.log(np.arange(1, n + 1, dtype=np.float64)), (e, 1))
    scale = e ** -0.5
    w_b = rng.normal(0.0, scale, size=(e, n))
    w_c = rng.normal(0.0, scale, size=(e, n))
    w_delta = rng.normal(0.0, scale, size=(e, e))
    # bias chosen so initial step sizes land log-uniformly in [0.01, 0.1]
    dt = np.exp(rng.uniform(np.log(0.01), np.log(0.1), size=e))
    scan = ScanParams(
        a_log=mk(a_log), w_b=mk(w_b), w_c=mk(w_c), w_delta=mk(w_delta),
        b_delta=mk(np.log(np.expm1(dt))), d_skip=mk(np.ones(e)))
    return SsmParams(
        scan=scan,
        theta=mk(np.zeros(e)),  # sigmoid(0)=0.5: start as an even blend
        conv_w=mk(rng.normal(0.0, DWCONV_WIDTH ** -0.5,
                             size=(e, DWCONV_WIDTH))),
        conv_b=mk(np.zeros(e)))


def linear_recurrence(delta: Tensor, a: Tensor, b: Tensor, s: Tensor,
                      c: Tensor) -> Tensor:
    """Fused discretization and scan: y_k = <c_k, h_k>, h_{-1} = 0, with

        h_k = exp(delta_k * a) * h_{k-1} + delta_k * s_k * b_k.

    delta, s: (L, E, 1); a: (1, E, N); b: (L, 1, N); c: (L, N); returns
    (L, E). The per-token decays and states exist only SCAN_CHUNK tokens
    at a time: the tape keeps the state entering each chunk, and backward
    recomputes the chunk's states from it before running the adjoint.
    Inside, a state is held as (N, E), so that every broadcast runs along
    the long channel axis. delta = 0 is a valid (frozen) step; only a
    non-finite delta is an error.
    """
    if delta.ndim != 3 or delta.shape[2] != 1:
        raise ValueError("delta must be (L, E, 1)")
    ln, e = delta.shape[:2]
    if a.ndim != 3 or a.shape[:2] != (1, e):
        raise ValueError("a must be (1, E, N)")
    n = a.shape[2]
    if b.shape != (ln, 1, n) or s.shape != (ln, e, 1) or c.shape != (ln, n):
        raise ValueError("b, s and c must be (L, 1, N), (L, E, 1) and (L, N)")
    dd, sd = delta.data[:, :, 0], s.data[:, :, 0]  # (L, E)
    at = np.ascontiguousarray(a.data[0].T)        # (N, E)
    bd, cd = b.data[:, 0], c.data                 # (L, N)
    dt = dd.dtype
    if not np.all(np.isfinite(dd)):
        raise T.NumericalError("non-finite scan step size delta")
    entry = np.zeros((-(-ln // SCAN_CHUNK), n, e), dtype=dt)

    def chunk(i):
        """Chunk i's delta*s, decays and states [entry, h_k0, ..., h_k1-1]."""
        span = slice(i * SCAN_CHUNK, (i + 1) * SCAN_CHUNK)
        ds = dd[span] * sd[span]
        abar = np.exp(dd[span, None, :] * at)
        hs = np.empty((len(ds) + 1, n, e), dtype=dt)
        hs[0] = entry[i]
        np.multiply(ds[:, None, :], bd[span, :, None], out=hs[1:])
        step = np.empty((n, e), dtype=dt)
        for k in range(len(ds)):
            np.multiply(abar[k], hs[k], out=step)
            hs[k + 1] += step
        return span, ds, abar, hs

    y = np.empty((ln, e), dtype=dt)
    for i in range(len(entry)):
        span, _, _, hs = chunk(i)
        y[span] = np.matmul(cd[span, None, :], hs[1:])[:, 0]
        if i + 1 < len(entry):
            entry[i + 1] = hs[-1]

    def bwd(g):
        gd, gs = np.empty((ln, e), dtype=dt), np.empty((ln, e), dtype=dt)
        gb, gc = np.empty((ln, n), dtype=dt), np.empty((ln, n), dtype=dt)
        ga = np.zeros((n, e), dtype=dt)
        carry = np.zeros((n, e), dtype=dt)
        for i in reversed(range(len(entry))):
            span, ds, abar, hs = chunk(i)
            gk = g[span]
            gc[span] = np.matmul(hs[1:], gk[:, :, None])[:, :, 0]
            # adjoint of h_k: its own output term plus what h_k+1 sends back
            gh = cd[span, :, None] * gk[:, None, :]
            for k in range(len(gk) - 1, -1, -1):
                gh[k] += carry
                np.multiply(gh[k], abar[k], out=carry)
            gb[span] = np.matmul(gh, ds[:, :, None])[:, :, 0]
            gds = np.matmul(bd[span, None, :], gh)[:, 0]
            gh *= hs[:-1]
            gh *= abar  # now d loss / d(delta_k * a) per token, state, channel
            gd[span] = np.einsum("tne,ne->te", gh, at) + gds * sd[span]
            gs[span] = gds * dd[span]
            ga += np.einsum("tne,te->ne", gh, dd[span])
        return (gd[:, :, None], np.ascontiguousarray(ga.T)[None],
                gb[:, None, :], gs[:, :, None], gc)

    return Tensor._make(y, (delta, a, b, s, c), bwd, "linear_recurrence")


def selective_scan(seq: Tensor, p: ScanParams, direction: str = "forward") -> Tensor:
    """Run the S6 recurrence over a (L, E) sequence in one direction.

    direction="reverse" is Flip . scan . Flip of the same parameters as
    one op: it scans a flipped copy of the input and flips the output,
    and backward flips the gradients likewise, so its arrays are those
    of the composition.
    """
    if seq.ndim != 2 or seq.shape[0] < 1:
        raise ValueError("sequence must be (L, E) with L >= 1")
    if direction not in ("forward", "reverse"):
        raise ValueError("direction must be 'forward' or 'reverse'")
    params = p.tensors()
    if any(t.dtype != seq.dtype for t in params):
        raise TypeError(f"scan parameters are not all {seq.dtype} like the "
                        "sequence; convert explicitly")
    rev = direction == "reverse"
    (ln, e), n = seq.shape, p.a_log.shape[1]
    x = np.flip(seq.data, 0).copy() if rev else seq.data
    d, bd = p.d_skip.data, p.b_delta.data
    wd, wb, wc = p.w_delta.data, p.w_b.data, p.w_c.data
    u = x @ wd
    u += bd
    a = -np.exp(p.a_log.data)
    leaf = lambda v, *shape: Tensor(v.reshape(shape), requires_grad=True,
                                    dtype=v.dtype)
    rec = linear_recurrence(
        leaf(np.logaddexp(0.0, u), ln, e, 1), leaf(a, 1, e, n),
        leaf(x @ wb, ln, 1, n), leaf(x, ln, e, 1), leaf(x @ wc, ln, n))
    rec_bwd = rec._backward_fn  # not rec: its (L, E) output need not live on

    def bwd(g):
        if rev:
            g = np.flip(g, 0).copy()
        gd, ga, gb, gs, gc = rec_bwd(g)
        u = x @ wd
        u += bd
        gu, gb = gd[:, :, 0], gb[:, 0]
        gu *= T._sigmoid(u)  # softplus'(u)
        gx = gu @ wd.T
        gx += gb @ wb.T
        gx += gc @ wc.T
        gx += gs[:, :, 0]
        gx += g * d
        return (np.flip(gx, 0) if rev else gx, ga[0] * a, x.T @ gb,
                x.T @ gc, x.T @ gu, gu.sum(axis=0), (g * x).sum(axis=0))

    y = rec.data + x * d
    return Tensor._make(np.flip(y, 0) if rev else y, (seq, *params), bwd,
                        "selective_scan")


def gated_fusion(y_fwd: Tensor, y_rev: Tensor, theta: Tensor) -> Tensor:
    """Per-channel convex blend: sigmoid(theta)*fwd + (1-sigmoid)*rev."""
    if y_fwd.shape != y_rev.shape or theta.shape != y_fwd.shape[1:]:
        raise ValueError("streams must be (L, E) alike and theta (E,)")
    if not y_fwd.dtype == y_rev.dtype == theta.dtype:
        raise TypeError(f"streams {y_fwd.dtype}/{y_rev.dtype} and theta "
                        f"{theta.dtype}; convert explicitly")
    alpha = T._sigmoid(theta.data)
    beta = 1.0 - alpha
    yf, yr = y_fwd.data, y_rev.data
    return Tensor._make(
        alpha * yf + beta * yr, (y_fwd, y_rev, theta),
        lambda g: (g * alpha, g * beta,
                   (g * (yf - yr)).sum(axis=0) * alpha * beta), "gated_fusion")


def bidir_scan_block(feat3d: Tensor, p: SsmParams, perm: MortonPermutation) -> Tensor:
    """Bidirectional Morton-sequence scan over a (C, X, Y, Z) block.

    gather -> layer norm -> causal depthwise conv + silu -> forward and
    reverse scans with the one shared parameter set -> gated fusion ->
    scatter -> residual add. Zero input maps to zero before the residual
    (norm, conv bias and projections all vanish at the origin), so the
    block starts near identity.
    """
    seq = gather_sequence(feat3d, perm)
    x = T.silu(dwconv1d_causal(T.layer_norm(seq, axis=-1), p.conv_w,
                               p.conv_b))
    y_fwd = selective_scan(x, p.scan, "forward")
    y_rev = selective_scan(x, p.scan, "reverse")
    fused = gated_fusion(y_fwd, y_rev, p.theta)
    return T.add(scatter_back(fused, perm), feat3d)
