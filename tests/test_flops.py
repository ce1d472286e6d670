"""Analytic cost model: hand-counted small cases and pinned full-scale values.

Small cases are recomputed digit by digit in the test body; the
full-scale numbers were derived once from the formula sheet with
independent arithmetic and are pinned as exact integers (the model is
integer-only, so any drift is a real change, not noise).
"""

from fractions import Fraction

import numpy as np
import pytest

from mortonseg.flops import (
    PLACEMENTS,
    _stage_grids,
    bench_rows,
    bidirectional_block_flops,
    conv_backbone_flops,
    conv_layer_flops,
    flops_estimate,
    scan_direction_flops,
    tri_orientation_block_flops,
)
from mortonseg.network import desk_config, full_config
from mortonseg.ssm import DWCONV_WIDTH

RESOLUTIONS = [(64, 64, 64), (96, 96, 96), (128, 128, 128), (160, 160, 144)]

# pinned full-config placement costs (exact integers)
PINNED = {
    (64, 64, 64): (142_737_408, 4_421_222_400),
    (96, 96, 96): (481_738_752, 14_921_625_600),
    (128, 128, 128): (1_141_899_264, 35_369_779_200),
    (160, 160, 144): (2_007_244_800, 62_173_440_000),
}


def test_stage_grids():
    assert _stage_grids((64, 64, 64)) == [
        (64, 64, 64), (32, 32, 32), (16, 16, 16), (8, 8, 8),
        (4, 4, 4), (4, 4, 4)]
    assert _stage_grids((160, 160, 144))[5] == (10, 10, 9)
    with pytest.raises(ValueError):
        _stage_grids((60, 64, 64))


def test_conv_layer_flops_hand_case():
    # 2 * 3^3 * 2 * 4 * 10 = 4320
    assert conv_layer_flops(3, 2, 4, 10) == 4320
    assert conv_layer_flops(1, 16, 4, 100) == 2 * 16 * 4 * 100


def test_scan_direction_flops_hand_case():
    # L=5, E=3, N=2: core 9*5*3*2 = 270; proj 2*5*3*3 + 4*5*3*2 = 210
    assert scan_direction_flops(5, 3, 2) == 270 + 90 + 120


def test_block_flops_hand_cases():
    one_dir = scan_direction_flops(5, 3, 2)
    assert DWCONV_WIDTH == 4
    assert bidirectional_block_flops(5, 3, 2) == (
        2 * one_dir + 2 * 4 * 5 * 3 + 4 * 5 * 3)
    assert tri_orientation_block_flops(5, 3, 2) == 3 * one_dir + 6 * 5 * 3


def test_dual_placement_decomposes():
    # one block on the 1/16 grid at ch[5], one on the 1/8 grid at ch[3]
    cfg = full_config()
    got = flops_estimate(cfg, (64, 64, 64), "dual_resolution")
    want = (bidirectional_block_flops(4 ** 3, 512, 16)
            + bidirectional_block_flops(8 ** 3, 128, 16))
    assert got == want


def test_reference_placement_decomposes():
    cfg = full_config()
    got = flops_estimate(cfg, (64, 64, 64), "tri_orientation_all_stages")
    grids = [64 ** 3, 32 ** 3, 16 ** 3, 8 ** 3, 4 ** 3, 4 ** 3]
    want = sum(tri_orientation_block_flops(v, c, 16)
               for v, c in zip(grids, cfg.channels))
    assert got == want


def test_full_scale_values_pinned():
    cfg = full_config()
    for res, (dual, ref) in PINNED.items():
        assert flops_estimate(cfg, res, "dual_resolution") == dual
        assert flops_estimate(cfg, res, "tri_orientation_all_stages") == ref


def test_ratio_exceeds_10_and_is_resolution_invariant():
    cfg = full_config()
    ratios = []
    for res in RESOLUTIONS:
        d = flops_estimate(cfg, res, "dual_resolution")
        r = flops_estimate(cfg, res, "tri_orientation_all_stages")
        ratios.append(Fraction(r, d))
    assert all(r >= 10 for r in ratios)
    # every term is linear in voxels, so the ratio is one exact rational
    assert len(set(ratios)) == 1
    assert ratios[0] == Fraction(44975, 1452)


def test_backbone_grows_with_resolution():
    cfg = full_config()
    costs = [conv_backbone_flops(cfg, r) for r in RESOLUTIONS]
    assert costs == sorted(costs)
    assert costs[0] > 0


def test_desk_backbone_pinned_at_32():
    # desk widths (4, 8, 16, 32, 64, 128) from 4 inputs; stage grids
    # 32^3, 16^3, 8^3, 4^3, 2^3, 2^3 hold 32768, 4096, 512, 64, 8, 8 voxels
    encoder = (56_623_104      # 4->4, 4->4 at 32768: 2 * 2*27*16*32768
               + 21_233_664    # 4->8 + 8->8 at 4096: 2*27*(32 + 64)*4096
               + 10_616_832    # 8->16 + 16->16 at 512: 2*27*(128 + 256)*512
               + 5_308_416     # 16->32 + 32->32 at 64: 2*27*(512 + 1024)*64
               + 2_654_208     # 32->64 + 64->64 at 8: 2*27*(2048 + 4096)*8
               + 10_616_832)   # 64->128 + 128->128 at 8: 2*27*(8192 + 16384)*8
    # the proj of levels 1-3 runs folded (8 taps per output voxel); level
    # 4's 2^3 low-res grid keeps 27, and level 5 does not upsample
    proj = (16_777_216         # 8->4 at 32768: 2*8*32*32768
            + 8_388_608        # 16->8 at 4096: 2*8*128*4096
            + 4_194_304        # 32->16 at 512: 2*8*512*512
            + 7_077_888        # 64->32 at 64: 2*27*2048*64
            + 3_538_944)       # 128->64 at 8: 2*27*8192*8
    fuse = (56_623_104 + 28_311_552 + 14_155_776 + 7_077_888
            + 3_538_944)       # 2lo->lo: 2*27*2*lo^2 * voxels, levels 1-5
    refine = (28_311_552 + 14_155_776 + 7_077_888 + 3_538_944
              + 1_769_472)     # lo->lo: 2*27*lo^2 * voxels, levels 1-5
    head = 1_048_576           # 1x1x1, 4->4 at 32768: 2*16*32768
    assert encoder + proj + fuse + refine + head == 312_639_488
    assert conv_backbone_flops(desk_config(), (32, 32, 32)) == 312_639_488


def test_desk_config_also_dominated_by_reference():
    cfg = desk_config()
    d = flops_estimate(cfg, (32, 32, 32), "dual_resolution")
    r = flops_estimate(cfg, (32, 32, 32), "tri_orientation_all_stages")
    assert r > 10 * d


def test_flops_estimate_validates_placement():
    with pytest.raises(ValueError):
        flops_estimate(full_config(), (64, 64, 64), "everywhere")
    assert set(PLACEMENTS) == {"dual_resolution",
                               "tri_orientation_all_stages"}


def test_bench_rows_structure():
    rows = bench_rows(full_config(), RESOLUTIONS)
    assert [r.resolution for r in rows] == RESOLUTIONS
    for row in rows:
        assert row.reference == PINNED[row.resolution][1]
        assert row.dual == PINNED[row.resolution][0]
        assert row.backbone == conv_backbone_flops(full_config(),
                                                   row.resolution)
        assert row.ratio == pytest.approx(44975 / 1452)
    ratios = [r.ratio for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
