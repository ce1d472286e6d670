"""Volumetric convolution primitives on the autodiff tape.

Layout convention: activations are channels-first without a batch axis,
(C, D, H, W). The optimizer sees one crop at a time, so batching is the
caller's loop, not a tensor axis.

conv3d pads by k//2, so with odd k the output grid is ceil(extent/stride)
per axis. It builds no im2col matrix: the padded input is split into its
stride^3 phases (one at stride 1) on a common grid and flattened, so each of
the k^3 taps reads one contiguous slice of one phase at a fixed offset, over
the output laid out with the grid's row length (voxels between rows are
cropped). The tape keeps only the phases, about the padded input's size.
Where the flat output length n >= 2*C_out (wide grids, few channels), out =
sum over taps of W_tap @ slice, using a tap-major copy of w. Below that (the
bottleneck: few voxels, hundreds of channels) the copy would cost more than
the GEMM, so w is read in place against the stacked slices, rebuilt in bwd.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def conv_out_extent(extent: int, stride: int) -> int:
    """Output extent of conv3d along one axis (pad=k//2, odd k)."""
    return (extent - 1) // stride + 1


def conv3d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """3-D convolution, pad=k//2.

    x: (C_in, D, H, W); w: (C_out, C_in, k, k, k); b: (C_out,).
    Returns (C_out, ceil(D/s), ceil(H/s), ceil(W/s)).
    """
    cin, d, h, wd = x.shape
    cout, cin_w, k, k2, k3 = w.shape
    if cin != cin_w or k != k2 or k != k3:
        raise ValueError(f"kernel {w.shape} does not match input {x.shape}")
    if b.shape != (cout,):
        raise ValueError("bias shape must be (C_out,)")
    if stride not in (1, 2):
        raise ValueError("stride must be 1 or 2")
    s, p, q = stride, k // 2, (k - 1) // stride
    od, oh, ow = (conv_out_extent(e, s) for e in (d, h, wd))
    gd, gh, gw = od + q, oh + q, ow + q
    # first output voxel to one past the last: the last tap ends its phase
    n = ((od - 1) * gh + oh - 1) * gw + ow
    taps = [(((a % s) * s + bb % s) * s + c % s,
             (a // s * gh + bb // s) * gw + c // s)
            for a, bb, c in np.ndindex(k, k, k)]

    xp = np.pad(x.data, [(0, 0)] + [(p, s * g - e - p) for e, g in
                                    ((d, gd), (h, gh), (wd, gw))])
    flat = np.ascontiguousarray(
        xp.reshape(cin, gd, s, gh, s, gw, s).transpose(2, 4, 6, 0, 1, 3, 5)
    ).reshape(s ** 3, cin, -1)
    slices = [flat[r, :, o:o + n] for r, o in taps]

    stacked = n < 2 * cout
    w2 = w.data.reshape(cout, -1)
    acc = np.zeros((cout, od * gh * gw), dtype=np.result_type(x.data, w.data))
    if stacked:
        np.matmul(w2, np.stack(slices, axis=1).reshape(-1, n), out=acc[:, :n])
    else:
        wt = np.ascontiguousarray(w2.reshape(cout, cin, -1).transpose(2, 0, 1))
        # one reused product buffer: a fresh one per tap costs page faults
        buf = np.empty((cout, n), dtype=acc.dtype)
        for wtap, sl in zip(wt, slices):
            acc[:, :n] += np.matmul(wtap, sl, out=buf)
    out = (acc.reshape(cout, od, gh, gw)[:, :, :oh, :ow]
           + b.data[:, None, None, None])

    def bwd(g):
        gf = np.zeros((cout, od, gh, gw), dtype=g.dtype)
        gf[:, :, :oh, :ow] = g
        gf = gf.reshape(cout, -1)[:, :n]
        gflat = np.zeros_like(flat)
        if stacked:
            gk = gf @ np.stack(slices, axis=1).reshape(-1, n).T
            gtaps = (w2.T @ gf).reshape(cin, len(taps), n).transpose(1, 0, 2)
        else:
            gk = np.stack([gf @ sl.T for sl in slices], axis=-1)
            buf = np.empty((cin, n), dtype=gflat.dtype)
            gtaps = (np.matmul(wtap.T, gf, out=buf) for wtap in wt)
        for (r, o), gt in zip(taps, gtaps):
            gflat[r, :, o:o + n] += gt
        gxp = gflat.reshape(s, s, s, cin, gd, gh, gw) \
            .transpose(3, 4, 0, 5, 1, 6, 2).reshape(cin, s * gd, s * gh, -1)
        return (gxp[:, p:p + d, p:p + h, p:p + wd], gk.reshape(w.shape),
                g.sum(axis=(1, 2, 3)))

    return Tensor._make(out, (x, w, b), bwd, "conv3d")


def dwconv1d_causal(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Depthwise causal 1-D convolution over a (L, E) sequence.

    y[t, e] = b[e] + sum_j w[e, j] * x[t - (k-1) + j, e], zero history.
    Position t never sees positions after t.
    """
    ln, e = x.shape
    ew, k = w.shape
    if ew != e or b.shape != (e,):
        raise ValueError("weight/bias extents do not match the sequence")
    xp = np.concatenate([np.zeros((k - 1, e), dtype=x.data.dtype), x.data])
    out = np.broadcast_to(b.data, (ln, e)).copy()
    for j in range(k):
        out += xp[j:j + ln] * w.data[:, j]

    def bwd(g):
        gb = g.sum(axis=0)
        gw = np.empty_like(w.data)
        gxp = np.zeros_like(xp)
        for j in range(k):
            gw[:, j] = (g * xp[j:j + ln]).sum(axis=0)
            gxp[j:j + ln] += g * w.data[:, j]
        return (gxp[k - 1:], gw, gb)

    return Tensor._make(out, (x, w, b), bwd, "dwconv1d")


def upsample_nearest3d(x: Tensor) -> Tensor:
    """Repeat each voxel 2x2x2 times; adjoint sums each block."""
    c, d, h, w = x.shape
    f = 2
    out = x.data.repeat(f, axis=1).repeat(f, axis=2).repeat(f, axis=3)

    def bwd(g):
        return (g.reshape(c, d, f, h, f, w, f).sum(axis=(2, 4, 6)),)

    return Tensor._make(out, (x,), bwd, "upsample3d")
