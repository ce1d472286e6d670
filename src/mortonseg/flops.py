"""Analytic FLOP model, exact integer arithmetic throughout.

Formula sheet (multiply-accumulate counted as 2 FLOPs):

  convolution layer        2 * k^3 * C_in * C_out * output_voxels
                           (bias, normalization and relu excluded: they
                           are O(C * voxels) against the k^3 term)
  upsample, then 3^3 conv  the layer above with k = 2 where
                           conv.upsample_conv_folds holds (8 phases x 2^3
                           low-res taps per low-res voxel, so 8 taps per
                           output voxel), k = 3 where the op upsamples and
                           then convolves (at both presets' widths, the
                           2^3 low-res grid)
  scan, one direction      9 * L * E * N   recurrence core per token,
                           channel and state, all inside the fused
                           ssm.linear_recurrence op: discretization 3
                           (mul, exp, mul), state update 4 (2 mul, add,
                           mul by s), output accumulation 2 (mul, add)
  projections, per dir     2*L*E*E (step size) + 2 * 2*L*E*N (B and C)
  depthwise conv, width w  2 * w * L * E   (run once, before both scans)
  gated fusion             4 * L * E       two scaled streams plus add
  3-way fusion (reference) 6 * L * E

  bidirectional block      2 * (scan + projections) + dwconv + fusion
  tri-orientation block    3 * (scan + projections) + 3-way fusion

Placements: "dual_resolution" puts one bidirectional block at the
bottleneck (1/16 grid, widest channels) and one on the 1/8 skip;
"tri_orientation_all_stages" models the compared design, a tri-oriented
block after every encoder stage at that stage's width and grid.
``flops_estimate`` counts the cost of the placement itself - the part
the two designs disagree on. The convolution backbone is identical
under either placement and is reported separately by
``conv_backbone_flops``; folding it into both sides would only dilute
the comparison toward 1. Every term is linear in the voxel count, so
the placement ratio is resolution-independent for grids the ladder
divides exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conv import upsample_conv_folds
from .network import NetConfig
from .ssm import DWCONV_WIDTH

SCAN_CORE_FLOPS = 9  # per (token, channel, state), one direction

PLACEMENTS = ("dual_resolution", "tri_orientation_all_stages")


def _stage_grids(resolution: tuple) -> list:
    """Spatial grid per encoder stage: full, /2, /4, /8, /16, /16."""
    x, y, z = (int(v) for v in resolution)
    if any(v % 16 for v in (x, y, z)):
        raise ValueError(f"resolution {resolution} not divisible by 16")
    grids = [(x, y, z)]
    for _ in range(4):
        x, y, z = x // 2, y // 2, z // 2
        grids.append((x, y, z))
    grids.append(grids[-1])
    return grids


def _vox(grid: tuple) -> int:
    gx, gy, gz = grid
    return gx * gy * gz


def conv_layer_flops(k: int, cin: int, cout: int, out_voxels: int) -> int:
    return 2 * k ** 3 * cin * cout * out_voxels


def conv_backbone_flops(cfg: NetConfig, resolution: tuple) -> int:
    """Encoder, decoder and head convolutions at the given input grid."""
    grids = _stage_grids(resolution)
    ch = cfg.channels
    total = 0
    cin = cfg.in_channels
    for i, c in enumerate(ch):
        v = _vox(grids[i])
        total += conv_layer_flops(3, cin, c, v)   # stage conv (maybe strided)
        total += conv_layer_flops(3, c, c, v)     # refine conv
        cin = c
    # decoder level i in 1..5 works at the stage-i grid with its width;
    # levels 1-4 upsample the level below inside their proj conv
    for i in range(5):
        lo, hi = ch[i], ch[i + 1]
        v = _vox(grids[i])
        k = 2 if i < 4 and upsample_conv_folds(grids[i + 1], lo) else 3
        total += conv_layer_flops(k, hi, lo, v)        # proj
        total += conv_layer_flops(3, 2 * lo, lo, v)    # fuse with the skip
        total += conv_layer_flops(3, lo, lo, v)        # refine
    total += conv_layer_flops(1, ch[0], cfg.num_classes, _vox(grids[0]))
    return total


def scan_direction_flops(length: int, e: int, n: int) -> int:
    """One direction: recurrence core plus its input projections."""
    core = SCAN_CORE_FLOPS * length * e * n
    proj = 2 * length * e * e + 2 * 2 * length * e * n
    return core + proj


def bidirectional_block_flops(length: int, e: int, n: int) -> int:
    return (2 * scan_direction_flops(length, e, n)
            + 2 * DWCONV_WIDTH * length * e + 4 * length * e)


def tri_orientation_block_flops(length: int, e: int, n: int) -> int:
    return 3 * scan_direction_flops(length, e, n) + 6 * length * e


def flops_estimate(cfg: NetConfig, resolution: tuple, placement: str) -> int:
    """Analytic FLOPs of the scan-block placement (backbone excluded)."""
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}")
    grids = _stage_grids(resolution)
    ch = cfg.channels
    n = cfg.state_size
    total = 0
    if placement == "dual_resolution":
        total += bidirectional_block_flops(_vox(grids[5]), ch[5], n)
        total += bidirectional_block_flops(_vox(grids[3]), ch[3], n)
    else:
        for i, c in enumerate(ch):
            total += tri_orientation_block_flops(_vox(grids[i]), c, n)
    return total


@dataclass
class BenchRow:
    resolution: tuple
    dual: int
    reference: int
    backbone: int   # shared conv cost, same under either placement

    @property
    def ratio(self) -> float:
        return self.reference / self.dual


def bench_rows(cfg: NetConfig, resolutions: list) -> list:
    return [BenchRow(resolution=tuple(r),
                     dual=flops_estimate(cfg, r, "dual_resolution"),
                     reference=flops_estimate(
                         cfg, r, "tri_orientation_all_stages"),
                     backbone=conv_backbone_flops(cfg, r))
            for r in resolutions]
