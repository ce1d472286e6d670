"""Overlap and boundary metrics against brute-force oracles.

The oracle path shares no code with the implementation: boundaries come
from an explicit 6-neighbor loop, nearest distances from a dense
all-pairs matrix, and the 95th percentile from hand-rolled linear
interpolation between order statistics.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mortonseg
from mortonseg.analysis import write_rows_csv
from mortonseg.metrics import (
    CSV_HEADER,
    REGIONS,
    boundary_voxels,
    dice,
    evaluate_case,
    hd95,
    report_rows,
    volume_diagonal,
)

NEIGHBORS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def dice_oracle(p, g):
    inter = 0
    np_, ng = 0, 0
    for a, b in zip(p.ravel(), g.ravel()):
        np_ += bool(a)
        ng += bool(b)
        inter += bool(a) and bool(b)
    if np_ + ng == 0:
        return 1.0
    return 2.0 * inter / (np_ + ng)


def boundary_oracle(mask):
    out = []
    d, h, w = mask.shape
    for z in range(d):
        for y in range(h):
            for x in range(w):
                if not mask[z, y, x]:
                    continue
                for dz, dy, dx in NEIGHBORS:
                    zz, yy, xx = z + dz, y + dy, x + dx
                    inside = 0 <= zz < d and 0 <= yy < h and 0 <= xx < w
                    if not inside or not mask[zz, yy, xx]:
                        out.append((z, y, x))
                        break
    return np.array(out, dtype=np.int64).reshape(-1, 3)


def percentile95_oracle(values):
    s = np.sort(np.asarray(values, dtype=np.float64))
    rank = 0.95 * (len(s) - 1)
    lo = int(np.floor(rank))
    frac = rank - lo
    if frac == 0.0:
        return float(s[lo])
    return float(s[lo] + frac * (s[lo + 1] - s[lo]))


def hd95_oracle(p, g, spacing=(1.0, 1.0, 1.0)):
    bp = boundary_oracle(p)
    bg = boundary_oracle(g)
    if len(bp) == 0 and len(bg) == 0:
        return 0.0
    if len(bp) == 0 or len(bg) == 0:
        return volume_diagonal(p.shape, spacing)
    sp = np.asarray(spacing)
    pp = bp * sp
    gg = bg * sp
    dmat = np.sqrt(((pp[:, None, :] - gg[None, :, :]) ** 2).sum(axis=2))
    return max(percentile95_oracle(dmat.min(axis=1)),
               percentile95_oracle(dmat.min(axis=0)))


def random_masks(rng, shape=(8, 8, 8), density=0.3):
    return (rng.random(shape) < density), (rng.random(shape) < density)


# ---------------------------------------------------------------- dice

def test_dice_matches_oracle_50_pairs():
    rng = np.random.default_rng(0)
    for i in range(50):
        p, g = random_masks(rng, density=rng.uniform(0.05, 0.6))
        assert dice(p, g) == pytest.approx(dice_oracle(p, g), abs=1e-12)


def test_dice_symmetric_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p, g = random_masks(rng)
        d = dice(p, g)
        assert d == dice(g, p)
        assert 0.0 <= d <= 1.0


def test_dice_identical_is_one():
    rng = np.random.default_rng(2)
    p = rng.random((8, 8, 8)) < 0.4
    assert dice(p, p) == 1.0


def test_dice_disjoint_is_zero():
    p = np.zeros((4, 4, 4), dtype=bool)
    g = np.zeros((4, 4, 4), dtype=bool)
    p[0, 0, 0] = True
    g[3, 3, 3] = True
    assert dice(p, g) == 0.0


def test_dice_both_empty_is_one():
    z = np.zeros((4, 4, 4), dtype=bool)
    assert dice(z, z) == 1.0


def test_dice_one_empty_is_zero():
    z = np.zeros((4, 4, 4), dtype=bool)
    g = z.copy()
    g[1, 1, 1] = True
    assert dice(z, g) == 0.0


def test_dice_grows_with_overlap():
    g = np.zeros((6, 6, 6), dtype=bool)
    g[1:5, 1:5, 1:5] = True
    p1 = np.zeros_like(g)
    p1[1:3, 1:5, 1:5] = True
    p2 = p1.copy()
    p2[3:5, 1:5, 1:5] = True
    assert dice(p1, g) < dice(p2, g) == 1.0


def test_dice_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        dice(np.zeros((4, 4, 4), bool), np.zeros((4, 4, 5), bool))


# ---------------------------------------------------------------- boundary

def test_boundary_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.random((6, 7, 5)) < 0.4
        got = boundary_voxels(m)
        want = boundary_oracle(m)
        assert sorted(map(tuple, got)) == sorted(map(tuple, want))


def test_boundary_solid_cube_is_shell():
    m = np.zeros((5, 5, 5), dtype=bool)
    m[1:4, 1:4, 1:4] = True
    got = boundary_voxels(m)
    assert len(got) == 26  # 3^3 minus the fully-interior center
    assert (2, 2, 2) not in set(map(tuple, got))


def test_boundary_volume_edge_counts_as_boundary():
    m = np.ones((3, 3, 3), dtype=bool)
    assert len(boundary_voxels(m)) == 26  # all but the center voxel


# ---------------------------------------------------------------- hd95

def test_hd95_matches_oracle_50_pairs():
    rng = np.random.default_rng(4)
    n = 0
    while n < 50:
        p, g = random_masks(rng, density=rng.uniform(0.05, 0.6))
        if not p.any() or not g.any():
            continue
        n += 1
        got, flag = hd95(p, g)
        assert not flag
        assert got == pytest.approx(hd95_oracle(p, g), abs=1e-9)


def test_hd95_anisotropic_spacing():
    rng = np.random.default_rng(5)
    spacing = (2.0, 1.0, 0.5)
    for _ in range(10):
        p, g = random_masks(rng)
        if not p.any() or not g.any():
            continue
        got, _ = hd95(p, g, spacing)
        assert got == pytest.approx(hd95_oracle(p, g, spacing), abs=1e-9)


def test_hd95_identical_is_zero():
    rng = np.random.default_rng(6)
    p = rng.random((8, 8, 8)) < 0.3
    p[0, 0, 0] = True
    assert hd95(p, p) == (0.0, False)


def test_hd95_single_voxel_offset():
    p = np.zeros((8, 8, 8), dtype=bool)
    g = np.zeros((8, 8, 8), dtype=bool)
    p[1, 1, 1] = True
    g[1, 1, 4] = True
    val, flag = hd95(p, g)
    assert (val, flag) == (3.0, False)
    val, _ = hd95(p, g, spacing=(1.0, 1.0, 2.0))
    assert val == 6.0


def test_hd95_both_empty():
    z = np.zeros((4, 4, 4), dtype=bool)
    assert hd95(z, z) == (0.0, False)


def test_hd95_one_empty_returns_diagonal_sentinel():
    z = np.zeros((4, 4, 4), dtype=bool)
    g = z.copy()
    g[1, 1, 1] = True
    val, flag = hd95(z, g, spacing=(1.0, 2.0, 3.0))
    assert flag
    assert val == pytest.approx(np.sqrt(16 + 64 + 144))


def test_hd95_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p, g = random_masks(rng)
        if not p.any() or not g.any():
            continue
        assert hd95(p, g) == hd95(g, p)


def test_hd95_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        hd95(np.zeros((4, 4, 4), bool), np.zeros((5, 4, 4), bool))


# ---------------------------------------------------------------- regions

def test_importing_the_package_leaves_scipy_spatial_unloaded():
    # hd95 imports the kd-tree at its first call, so neither the package
    # nor the CLI pays for scipy.spatial (and the scipy.sparse and
    # scipy.linalg it loads) at import
    src = str(Path(mortonseg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, mortonseg, mortonseg.cli; "
            "print('scipy.spatial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_region_table():
    assert REGIONS == {"WT": (1, 2, 3), "TC": (2, 3), "ET": (3,)}


def test_evaluate_case_composites():
    rng = np.random.default_rng(8)
    pred = rng.integers(0, 4, size=(8, 8, 8))
    gt = rng.integers(0, 4, size=(8, 8, 8))
    rep = evaluate_case(pred, gt, case_id="c0")
    for region, labels in REGIONS.items():
        pm = np.isin(pred, labels)
        gm = np.isin(gt, labels)
        assert rep.scores[region].dice == pytest.approx(dice_oracle(pm, gm))
        assert rep.scores[region].hd95 == pytest.approx(hd95_oracle(pm, gm))
    assert rep.mean_dice() == pytest.approx(
        np.mean([rep.scores[r].dice for r in REGIONS]))


def test_evaluate_case_rejects_unknown_labels():
    good = np.zeros((4, 4, 4), dtype=np.int64)
    bad = good.copy()
    bad[0, 0, 0] = 7
    with pytest.raises(ValueError):
        evaluate_case(bad, good)
    with pytest.raises(ValueError):
        evaluate_case(good, bad)


def test_reports_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    reps = [evaluate_case(rng.integers(0, 4, (6, 6, 6)),
                          rng.integers(0, 4, (6, 6, 6)), case_id=f"c{i}")
            for i in range(3)]
    path = tmp_path / "scores.csv"
    write_rows_csv(path, CSV_HEADER, report_rows(reps))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["case_id", "region", "dice", "hd95", "sentinel"]
    assert len(rows) == 1 + 3 * len(REGIONS)
    for row, (rep, region) in zip(rows[1:], [(r, g) for r in reps
                                             for g in REGIONS]):
        s = rep.scores[region]
        assert row[:2] == [rep.case_id, region]
        assert float(row[2]) == pytest.approx(s.dice, abs=1e-6)
        assert float(row[3]) == pytest.approx(s.hd95, abs=1e-6)
        assert int(row[4]) == int(s.sentinel)
