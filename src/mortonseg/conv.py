"""Volumetric convolution primitives on the autodiff tape.

Layout convention: activations are channels-first without a batch axis,
(C, D, H, W). The optimizer sees one crop at a time, so batching is the
caller's loop, not a tensor axis.

conv3d pads by k//2, so with odd k the output grid is ceil(extent/stride)
per axis. It builds no im2col matrix. One shifted-tap engine serves both
convolutions here: the padded input is split into its stride^3 phases (one
at stride 1) on a common grid and flattened, so each tap reads one
contiguous slice of one phase at a fixed offset, over the output laid out
with the grid's row length (voxels between rows are cropped), and the
GEMM loop and its adjoint run over a list of (weights, slice, output)
taps. The tape keeps the input itself, which it holds anyway as the op's
parent, not the phases: backward splits it again, so no padded copy
outlives the op's forward or backward.
- conv3d, per-tap form: where the flat output length n >= 2*C_out (wide
  grids, few channels), the k^3 taps each add W_tap @ slice, from a
  tap-major copy of w.
- conv3d, stacked form: below that (the bottleneck: few voxels, hundreds of
  channels) the copy would cost more than the GEMM, so w is read in place
  against the taps' output-voxel columns stacked, rebuilt in bwd.
- upsample_conv3d, conv3d after a 2x nearest-neighbor upsample with the
  upsample folded into the kernel: the 27 taps are the low-res offsets,
  each one GEMM with the folded kernels of the 1-8 output phases that
  read it. It takes no bias; conv3d's is optional.
"""

from __future__ import annotations

import itertools

import numpy as np

from .tensor import Tensor


def conv_out_extent(extent: int, stride: int) -> int:
    """Output extent of conv3d along one axis (pad=k//2, odd k)."""
    return (extent - 1) // stride + 1


def _flat_phases(x: np.ndarray, k: int, s: int):
    """Pad x by k//2 and split it into its s^3 stride phases, flattened.

    Returns (flat, taps, grid, slices). flat is (s^3, C, gd*gh*gw), every
    phase on the common grid (gd, gh, gw) = grid. Output voxel (z, y, x)
    sits at flat column (z*gh + y)*gw + x of every phase, and tap i of
    np.ndindex(k, k, k) reads phase r at offset o from it, (r, o) = taps[i]:
    slices[i] = flat[r, :, o:o + n], n columns from the first output voxel
    to the last (the last tap ends its phase there).
    """
    cin, d, h, wd = x.shape
    p, q = k // 2, (k - 1) // s
    od, oh, ow = (conv_out_extent(e, s) for e in (d, h, wd))
    gd, gh, gw = od + q, oh + q, ow + q
    n = ((od - 1) * gh + oh - 1) * gw + ow
    taps = [(((a % s) * s + bb % s) * s + c % s,
             (a // s * gh + bb // s) * gw + c // s)
            for a, bb, c in np.ndindex(k, k, k)]
    xp = np.pad(x, [(0, 0)] + [(p, s * g - e - p) for e, g in
                               ((d, gd), (h, gh), (wd, gw))])
    flat = np.ascontiguousarray(
        xp.reshape(cin, gd, s, gh, s, gw, s).transpose(2, 4, 6, 0, 1, 3, 5)
    ).reshape(s ** 3, cin, -1)
    return flat, taps, (gd, gh, gw), [flat[r, :, o:o + n] for r, o in taps]


def _unflat_phases(gflat: np.ndarray, shape: tuple, grid: tuple, k: int,
                   s: int) -> np.ndarray:
    """Adjoint of _flat_phases: flat's gradient as the gradient of x."""
    cin, d, h, wd = shape
    p = k // 2
    gxp = gflat.reshape(s, s, s, cin, *grid).transpose(3, 4, 0, 5, 1, 6, 2) \
        .reshape(cin, s * grid[0], s * grid[1], -1)
    return gxp[:, p:p + d, p:p + h, p:p + wd]


def _tap_products(wmats, slices, outs) -> None:
    """outs[i] += wmats[i] @ slices[i] for every tap, through one reused
    product buffer (a fresh one per tap costs page faults)."""
    buf = np.empty((max(len(m) for m in wmats), slices[0].shape[1]),
                   dtype=outs[0].dtype)
    for wm, sl, out in zip(wmats, slices, outs):
        out += np.matmul(wm, sl, out=buf[:len(wm)]).reshape(out.shape)


def _tap_adjoints(wmats, slices, gouts, taps, gflat) -> list:
    """Adjoint of _tap_products: adds wmats[i].T @ gouts[i] into tap i's
    slice of flat's gradient gflat, and returns the weight gradients
    gouts[i] @ slices[i].T."""
    n = slices[0].shape[1]
    buf = np.empty((gflat.shape[1], n), dtype=gflat.dtype)
    gws = []
    for (r, o), wm, sl, go in zip(taps, wmats, slices, gouts):
        gflat[r, :, o:o + n] += np.matmul(wm.T, go, out=buf)
        gws.append(go @ sl.T)
    return gws


def _check_kernel(x: Tensor, w: Tensor, b: Tensor | None = None) -> None:
    cout, cin_w, k, k2, k3 = w.shape
    if x.shape[0] != cin_w or k != k2 or k != k3:
        raise ValueError(f"kernel {w.shape} does not match input {x.shape}")
    if b is not None and b.shape != (cout,):
        raise ValueError("bias shape must be (C_out,)")


def conv3d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride: int = 1) -> Tensor:
    """3-D convolution, pad=k//2.

    x: (C_in, D, H, W); w: (C_out, C_in, k, k, k); b: (C_out,) or None.
    Returns (C_out, ceil(D/s), ceil(H/s), ceil(W/s)).
    """
    _check_kernel(x, w, b)
    if stride not in (1, 2):
        raise ValueError("stride must be 1 or 2")
    cout, cin, k = w.shape[:3]
    od, oh, ow = (conv_out_extent(e, stride) for e in x.shape[1:])
    flat, taps, grid, slices = _flat_phases(x.data, k, stride)
    gh, gw = grid[1:]
    n = slices[0].shape[1]
    w2 = w.data.reshape(cout, -1)
    stacked = n < 2 * cout
    if stacked:
        # only the output voxels' columns, each tap's as a box of the phase
        # grid: on a few-voxel grid the columns between rows would be most
        # of the GEMM
        boxes = [(r, slice(None)) + tuple(
            slice(t, t + e) for t, e in zip(np.unravel_index(o, grid),
                                            (od, oh, ow)))
            for r, o in taps]

        def stack(flat):
            vol = flat.reshape(flat.shape[:2] + grid)
            return np.stack([vol[box] for box in boxes],
                            axis=1).reshape(-1, od * oh * ow)

        out = (w2 @ stack(flat)).reshape(cout, od, oh, ow)
    else:
        wt = np.ascontiguousarray(w2.reshape(cout, cin, -1).transpose(2, 0, 1))
        acc = np.zeros((cout, od * gh * gw),
                       dtype=np.result_type(x.data, w.data))
        _tap_products(wt, slices, [acc[:, :n]] * len(taps))
        out = acc.reshape(cout, od, gh, gw)[:, :, :oh, :ow]
    if b is not None:
        out += b.data[:, None, None, None]

    def bwd(g):
        flat, _, _, slices = _flat_phases(x.data, k, stride)
        gflat = np.zeros_like(flat)
        if stacked:
            gf = g.reshape(cout, -1)
            gk = gf @ stack(flat).T
            gcols = (w.data.reshape(cout, -1).T @ gf).reshape(
                cin, len(taps), od, oh, ow)
            gvol = gflat.reshape(flat.shape[:2] + grid)
            for i, box in enumerate(boxes):
                gvol[box] += gcols[:, i]
        else:
            gf = np.zeros((cout, od, gh, gw), dtype=g.dtype)
            gf[:, :, :oh, :ow] = g
            gf = gf.reshape(cout, -1)[:, :n]
            gk = np.stack(_tap_adjoints(wt, slices, [gf] * len(taps), taps,
                                        gflat), axis=-1)
        grads = (_unflat_phases(gflat, x.shape, grid, k, stride),
                 gk.reshape(w.shape))
        return grads if b is None else grads + (g.sum(axis=(1, 2, 3)),)

    return Tensor._make(out, (x, w) if b is None else (x, w, b), bwd,
                        "conv3d")


# Per axis, output phase 0 of conv3(upsample2(x)) reads the low-res offsets
# {-1, 0} with weights (w_-1, w_0 + w_1), phase 1 reads {0, +1} with
# (w_-1 + w_0, w_1). Row j of _FOLD makes folded tap j from the 3 taps:
# (phase, offset) = (0, -1), (0, 0), (1, 0), (1, +1).
_FOLD = np.array([[1, 0, 0], [0, 1, 1], [1, 1, 0], [0, 0, 1]])
# per axis, low-res offset -1, 0, +1 -> (its folded taps, the phases they feed)
_OFFSET_USES = ((slice(0, 1), slice(0, 1)), (slice(1, 3), slice(0, 2)),
                (slice(3, 4), slice(1, 2)))


def _fold3(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Contract each of a's three leading axes with the matrix m."""
    m = m.astype(a.dtype)
    for i in range(3):
        a = m @ a.reshape(a.shape[:i] + (m.shape[1], -1))
    return a


def upsample_conv_folds(grid: tuple, cout: int) -> bool:
    """Whether upsample_conv3d runs folded on the low-res grid (D, H, W).

    It does where its GEMMs are at least C_out columns wide. On fewer (the
    2^3 grids of the model's deepest upsample) the fold, the 27 GEMMs and
    their gathers cost more than the taps they save, so there the op is
    conv3d on the upsampled grid.
    """
    d, h, wd = grid
    return ((d - 1) * (h + 2) + h - 1) * (wd + 2) + wd >= cout


def upsample_conv3d(x: Tensor, w: Tensor) -> Tensor:
    """conv3d(upsample_nearest3d(x), w) for a 3x3x3 kernel, as one op.

    Each output voxel of the 2x grid is one of 8 phases (its coordinates'
    parities), and a phase reads only 2 low-res offsets per axis (_FOLD),
    so the op runs on the low-res grid: per low-res offset, one GEMM with
    the folded kernels of the 1, 2, 4 or 8 phases that read it, 64 taps
    per low-res voxel instead of 216. One transpose interleaves the phases.
    Backward is the same loop's adjoint plus the transposed fold. Where
    upsample_conv_folds says no, the op is the composed pair, each with its
    own adjoint. In f32 the folded kernel sums weights before multiplying,
    so results differ from the composed pair's in the last bits.
    """
    _check_kernel(x, w)
    if w.shape[2] != 3:
        raise ValueError("upsample_conv3d takes a 3x3x3 kernel")
    cin, d, h, wd = x.shape
    cout = w.shape[0]
    if not upsample_conv_folds((d, h, wd), cout):
        return conv3d(upsample_nearest3d(x), w)
    flat, taps, grid, slices = _flat_phases(x.data, 3, 1)
    gh, gw = grid[1:]
    n = slices[0].shape[1]
    uses = list(itertools.product(_OFFSET_USES, repeat=3))  # taps' order
    wf = _fold3(w.data.transpose(2, 3, 4, 0, 1), _FOLD) \
        .reshape(4, 4, 4, cout, cin)
    wmats = [wf[ja, jb, jc].reshape(-1, cin)
             for (ja, _), (jb, _), (jc, _) in uses]
    acc = np.zeros((2, 2, 2, cout, d * gh * gw),
                   dtype=np.result_type(x.data, w.data))
    _tap_products(wmats, slices, [acc[pa, pb, pc, :, :n]
                                  for (_, pa), (_, pb), (_, pc) in uses])
    out = acc.reshape(2, 2, 2, cout, d, gh, gw)[..., :h, :wd] \
        .transpose(3, 4, 0, 5, 1, 6, 2).reshape(cout, 2 * d, 2 * h, 2 * wd)

    def bwd(g):
        flat, _, _, slices = _flat_phases(x.data, 3, 1)
        gacc = np.zeros((2, 2, 2, cout, d, gh, gw), dtype=g.dtype)
        gacc[..., :h, :wd] = g.reshape(cout, d, 2, h, 2, wd, 2) \
            .transpose(2, 4, 6, 0, 1, 3, 5)
        gacc = gacc.reshape(2, 2, 2, cout, -1)[..., :n]
        gouts = (gacc[pa, pb, pc].reshape(-1, n)
                 for (_, pa), (_, pb), (_, pc) in uses)
        gflat = np.zeros_like(flat)
        gwf = np.empty((4, 4, 4, cout, cin), dtype=g.dtype)
        for ((ja, _), (jb, _), (jc, _)), gwm in zip(
                uses, _tap_adjoints(wmats, slices, gouts, taps, gflat)):
            gwf[ja, jb, jc] = gwm.reshape(gwf[ja, jb, jc].shape)
        gk = _fold3(gwf, _FOLD.T).reshape(3, 3, 3, cout, cin)
        return (_unflat_phases(gflat, x.shape, grid, 3, 1),
                gk.transpose(3, 4, 0, 1, 2))

    return Tensor._make(out, (x, w), bwd, "upsample_conv3d")


def dwconv1d_causal(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Depthwise causal 1-D convolution over a (L, E) sequence.

    y[t, e] = b[e] + sum_j w[e, j] * x[t - (k-1) + j, e], zero history.
    Position t never sees positions after t. The tape keeps x, not its
    zero-padded copy: backward pads it again.
    """
    ln, e = x.shape
    ew, k = w.shape
    if ew != e or b.shape != (e,):
        raise ValueError("weight/bias extents do not match the sequence")
    xd = x.data
    pad = lambda: np.concatenate([np.zeros((k - 1, e), dtype=xd.dtype), xd])
    xp = pad()
    out = np.broadcast_to(b.data, (ln, e)).copy()
    for j in range(k):
        out += xp[j:j + ln] * w.data[:, j]

    def bwd(g):
        xp = pad()
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
