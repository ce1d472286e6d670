"""Acceptance gate: twelve shipping criteria, one verdict line each.

Each test asserts exactly one criterion and prints a single
machine-greppable PASS/FAIL line before the assert fires, so the run
log reads as a checklist. Expected values are either recomputed from an
independent oracle inside this file or pinned constants derived once by
hand or exhaustive enumeration. Tolerances are fixed here and never
track the implementation.

Criterion 3 is expected to FAIL: the claimed strict inequality between
mean neighbor distances does not hold on dyadic cubes, where the two
orderings tie exactly (see the assertion message for the enumerated
values). The test states the requirement as written and reports the
true numbers.
"""

import time
from fractions import Fraction

import numpy as np

from mortonseg import tensor as T
from mortonseg.analysis import analyze_et_quintiles, eval_record
from mortonseg.checksuite import run_suite
from mortonseg.flops import bench_rows
from mortonseg.folds import N_FOLDS, build_systematic_folds
from mortonseg.gradcheck import check_gradients
from mortonseg.metrics import dice, evaluate_case, hd95
from mortonseg.morton import (
    build_permutation,
    locality_stats,
    morton_code,
    morton_decode,
)
from mortonseg.network import (
    Model,
    desk_config,
    full_config,
    soft_dice,
)
from mortonseg.phantom import (
    LABEL_ED,
    LABEL_ET,
    LABEL_NCR,
    compute_region_volumes,
    generate_phantom,
    normalize_modalities,
)
from mortonseg.rng import make_rng
from mortonseg.ssm import gated_fusion, init_ssm_params, selective_scan
from mortonseg.tensor import Tensor
from mortonseg.train import AdamW, train
from mortonseg.vq import (
    ema_update,
    init_from_batch,
    make_codebook,
    nearest_indices,
    straight_through_check,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# --------------------------------------------------------------- 1


def test_01_gradient_integrity_all_ops_and_composed_graph():
    t0 = time.perf_counter()
    results = run_suite()
    wall = time.perf_counter() - t0
    names = [r.name for r in results]
    worst = max(r.max_rel_error for r in results)
    ok = (all(r.passed for r in results)
          and worst < 1e-4
          and "composed_forward" in names
          and "vq_ste_identity" in names
          and wall < 120.0)
    _verdict(1, ok, f"{len(results)} checks, max rel err {worst:.2e}, "
                    f"{wall:.1f} s (< 120 s)")


# --------------------------------------------------------------- 2


def test_02_morton_bijection_and_monotone_codes():
    rng = np.random.default_rng(2)
    grids = {(1, 1, 1), (8, 8, 8), (10, 10, 9)}
    while len(grids) < 28:
        grids.add(tuple(int(v) for v in rng.integers(1, 9, size=3)))
    t0 = time.perf_counter()
    for dims in sorted(grids):
        p = build_permutation(dims)
        n = int(np.prod(dims))
        # bijection: forward is a permutation and inverse undoes it
        assert np.array_equal(np.sort(p.forward), np.arange(n))
        assert np.array_equal(p.forward[p.inverse], np.arange(n))
        xe, ye, ze = dims
        v = p.forward
        x, y, z = v // (ze * ye), (v // ze) % ye, v % ze
        codes = np.asarray(morton_code(x, y, z, p.bits))
        # monotone-code property: sequence position sorts codes strictly
        assert np.all(codes[1:] > codes[:-1])
        xd, yd, zd = morton_decode(codes, p.bits)
        assert (np.array_equal(xd, x) and np.array_equal(yd, y)
                and np.array_equal(zd, z))
    wall = time.perf_counter() - t0
    _verdict(2, True, f"{len(grids)} grids bijective, codes strictly "
                      f"increasing, decode is exact inverse, {wall:.2f} s")


# --------------------------------------------------------------- 3


def test_03_morton_neighbor_distance_mean_below_row_major():
    mo = locality_stats((8, 8, 8), "morton")
    rm = locality_stats((8, 8, 8), "row_major")
    assert mo.n_pairs == rm.n_pairs == 1344
    # regression anchors from the first exhaustive enumeration: both
    # orderings average exactly 73/3 on the dyadic cube (the orderings
    # differ only in median 4 vs 8 and max 220 vs 64, not the mean)
    assert abs(mo.mean - 73.0 / 3.0) < 1e-12
    assert abs(rm.mean - 73.0 / 3.0) < 1e-12
    ok = mo.mean < rm.mean
    _verdict(3, ok, f"mean 6-neighbor index distance: morton {mo.mean:.6f} "
                    f"vs row-major {rm.mean:.6f}; strict < required, "
                    f"the means tie exactly at 73/3")


# --------------------------------------------------------------- 4


def test_04_reverse_scan_equals_flip_scan_flip_bit_exact():
    for trial in range(20):
        rng = make_rng(4, trial)
        ln = int(rng.integers(2, 48))
        e = int(rng.integers(1, 7))
        n = int(rng.integers(1, 6))
        with T.default_dtype(np.float64):
            p = init_ssm_params(rng, e, n).scan
        seq = Tensor(rng.normal(0.0, 1.0, size=(ln, e)), dtype=np.float64)
        rev = selective_scan(seq, p, "reverse")
        flipped = T.flip(
            selective_scan(T.flip(seq, 0), p, "forward"), 0)
        assert np.array_equal(rev.data, flipped.data)
    _verdict(4, True, "reverse scan == flip(scan(flip)) bit-exact on "
                      "20 random sequences")


# --------------------------------------------------------------- 5


def test_05_gated_fusion_neutral_theta_and_theta_gradient():
    rng = make_rng(5, 0)
    yf = Tensor(rng.normal(0.0, 1.0, size=(17, 6)), dtype=np.float64)
    yr = Tensor(rng.normal(0.0, 1.0, size=(17, 6)), dtype=np.float64)
    theta0 = Tensor(np.zeros(6), dtype=np.float64)
    fused = gated_fusion(yf, yr, theta0)
    # sigmoid(0) = 0.5 and halving is exact, so theta=0 must reproduce
    # the stream mean to the last bit
    exact = np.array_equal(fused.data, 0.5 * (yf.data + yr.data))

    theta = Tensor(rng.normal(0.0, 0.5, size=6), dtype=np.float64,
                   requires_grad=True)
    res = check_gradients(lambda th: gated_fusion(yf, yr, th), [theta],
                          name="fusion_theta")
    ok = exact and res.passed and res.max_rel_error < 1e-4
    _verdict(5, ok, f"theta=0 equals stream mean bit-exact: {exact}; "
                    f"theta FD rel err {res.max_rel_error:.2e}")


# --------------------------------------------------------------- 6


def test_06_vq_assignment_ste_and_ema_recovery():
    rng = make_rng(6, 0)
    # exhaustive assignment oracle on a random batch
    y = rng.normal(0.0, 1.0, size=(200, 6))
    emb = rng.normal(0.0, 1.0, size=(17, 6))
    d2 = ((y[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2)
    assignments_exact = np.array_equal(nearest_indices(y, emb),
                                       np.argmin(d2, axis=1))

    # straight-through backward must equal the identity bypass bit for bit
    # twelve 4-d tokens as a (D, M) map
    with T.default_dtype(np.float64):
        cb = make_codebook(make_rng(6, 1), k=5, d=4)
    ste = straight_through_check(rng.normal(0.0, 1.0, size=(12, 4)).T,
                                 T.silu, cb)

    # EMA pulls a seeded codebook onto 3 synthetic cluster centers
    centers = np.array([[2.0, 0.0, 0.0, -2.0],
                        [-2.0, 2.0, 0.0, 0.0],
                        [0.0, -2.0, 2.0, 2.0]])
    with T.default_dtype(np.float64):
        cb3 = make_codebook(make_rng(6, 2), k=3, d=4)
    draw = make_rng(6, 3)

    def batch():
        idx = draw.integers(0, 3, size=240)
        return centers[idx] + draw.normal(0.0, 0.05, size=(240, 4))

    init_from_batch(cb3, batch(), make_rng(6, 4))
    updates = 0
    for _ in range(200):
        b = batch()
        cb3 = ema_update(cb3, b, nearest_indices(b, cb3.embeddings))
        updates += 1
        errs = [np.linalg.norm(cb3.embeddings - c, axis=1).min()
                for c in centers]
        if max(errs) < 0.05:
            break
    recovered = max(np.linalg.norm(cb3.embeddings - c, axis=1).min()
                    for c in centers)
    ok = (assignments_exact and ste.passed and ste.max_abs_diff == 0.0
          and recovered < 0.05 and updates <= 200)
    _verdict(6, ok, f"assignments exact: {assignments_exact}; STE diff "
                    f"{ste.max_abs_diff}; centroids within "
                    f"{recovered:.4f} after {updates} updates")


# --------------------------------------------------------------- 7


def test_07_desk_preset_overfits_four_phantoms():
    t0 = time.perf_counter()
    cases = [generate_phantom(100 + i, heterogeneity=3.0,
                              et_volume_target=400) for i in range(4)]
    model = Model(desk_config(), seed=3)
    opt = AdamW(model.parameters(), lr=0.065, weight_decay=0.0,
                beta1=0.85, beta2=0.99)
    result, _ = train(model, cases, steps=300, seed=3, augment=False,
                      optimizer=opt)
    wall = time.perf_counter() - t0

    total = [row["total"] for row in result.losses]
    smooth = [float(np.mean(total[max(0, i - 9):i + 1])) for i in range(50)]
    monotone = all(smooth[i] > smooth[i + 1] for i in range(49))

    dices = []
    for c in cases:
        out = model.forward(Tensor(normalize_modalities(c.modalities)))
        dices.append(soft_dice(out.logits.data, c.labels))
    mean_dice = float(np.mean(dices))

    ok = mean_dice >= 0.95 and monotone and wall < 1800.0
    _verdict(7, ok, f"mean soft dice {mean_dice:.4f} (>= 0.95) over "
                    f"{len(cases)} phantoms in 300 steps; smoothed loss "
                    f"monotone over first 50: {monotone}; "
                    f"wall {wall:.0f} s (< 1800)")


# --------------------------------------------------------------- 8


def _dice_oracle(a: np.ndarray, b: np.ndarray) -> float:
    inter = int(np.logical_and(a, b).sum())
    denom = int(a.sum()) + int(b.sum())
    return 1.0 if denom == 0 else 2.0 * inter / denom


def _boundary_oracle(mask: np.ndarray) -> np.ndarray:
    out = np.zeros_like(mask, dtype=bool)
    xs, ys, zs = mask.shape
    for x in range(xs):
        for y in range(ys):
            for z in range(zs):
                if not mask[x, y, z]:
                    continue
                for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    nx, ny, nz = x + dx, y + dy, z + dz
                    if (not 0 <= nx < xs or not 0 <= ny < ys
                            or not 0 <= nz < zs or not mask[nx, ny, nz]):
                        out[x, y, z] = True
                        break
    return out


def _pct95_oracle(d: np.ndarray) -> float:
    s = np.sort(d)
    rank = 0.95 * (s.size - 1)
    lo = int(np.floor(rank))
    frac = rank - lo
    hi = min(lo + 1, s.size - 1)
    return float(s[lo] + frac * (s[hi] - s[lo]))


def _hd95_oracle(pred: np.ndarray, gt: np.ndarray) -> float:
    pp = np.argwhere(_boundary_oracle(pred)).astype(float)
    gg = np.argwhere(_boundary_oracle(gt)).astype(float)
    dd = np.sqrt(((pp[:, None, :] - gg[None, :, :]) ** 2).sum(axis=2))
    return max(_pct95_oracle(dd.min(axis=1)), _pct95_oracle(dd.min(axis=0)))


def test_08_metrics_match_brute_force_oracles():
    rng = make_rng(8, 0)
    worst_d, worst_h = 0.0, 0.0
    for _ in range(50):
        a = rng.random(size=(8, 8, 8)) < 0.5
        b = rng.random(size=(8, 8, 8)) < 0.5
        assert a.any() and b.any()
        worst_d = max(worst_d, abs(dice(a, b) - _dice_oracle(a, b)))
        h, sentinel = hd95(a, b)
        assert not sentinel
        worst_h = max(worst_h, abs(h - _hd95_oracle(a, b)))
    ok = worst_d < 1e-6 and worst_h < 1e-6
    _verdict(8, ok, f"50 random mask pairs: dice max |err| {worst_d:.2e}, "
                    f"hd95 max |err| {worst_h:.2e} (both < 1e-6)")


# --------------------------------------------------------------- 9


def test_09_systematic_folds_balance_fifty_phantoms():
    cases = [generate_phantom(seed) for seed in range(50)]
    pairs = [(c.case_id, c.stats.fiv) for c in cases]
    fa = build_systematic_folds(pairs, seed=9)
    fa2 = build_systematic_folds(list(reversed(pairs)), seed=9)
    deterministic = fa2 == fa

    sizes = [len(fa.fold_cases(f)) for f in range(1, N_FOLDS + 1)]
    cell = {}
    for cid, fold in fa.assignment.items():
        cell[(fold, fa.bins[cid])] = cell.get((fold, fa.bins[cid]), 0) + 1
    counts = list(cell.values())
    balanced = (len(cell) == 25 and max(counts) - min(counts) <= 1
                and sizes == [10] * N_FOLDS)

    fiv = {c.case_id: c.stats.fiv for c in cases}
    global_mean = float(np.mean(list(fiv.values())))
    fold_means = [float(np.mean([fiv[c] for c in fa.fold_cases(f)]))
                  for f in range(1, N_FOLDS + 1)]
    spread = max(abs(m - global_mean) / global_mean for m in fold_means)

    ok = deterministic and balanced and spread <= 0.05
    _verdict(9, ok, f"5 folds x {sizes}, per-(fold,bin) counts "
                    f"{sorted(set(counts))}, fold mean fiv within "
                    f"{spread * 100:.2f}% of global (<= 5%), "
                    f"deterministic: {deterministic}")


# --------------------------------------------------------------- 10


def test_10_flop_ratio_floor_and_growth():
    resolutions = [(64, 64, 64), (96, 96, 96), (128, 128, 128),
                   (160, 160, 144)]
    # pinned exact placement costs (integer model, derived once by hand)
    pinned = {
        (64, 64, 64): (142_737_408, 4_421_222_400),
        (96, 96, 96): (481_738_752, 14_921_625_600),
        (128, 128, 128): (1_141_899_264, 35_369_779_200),
        (160, 160, 144): (2_007_244_800, 62_173_440_000),
    }
    rows = bench_rows(full_config(), resolutions)
    exact = all((r.dual, r.reference) == pinned[r.resolution] for r in rows)
    ratios = [Fraction(r.reference, r.dual) for r in rows]
    # both placements are linear in voxels, so the ratio is constant:
    # nondecreasing holds with equality at 44975/1452 ~ 30.97
    nondecreasing = all(ratios[i + 1] >= ratios[i]
                        for i in range(len(ratios) - 1))
    floor = ratios[-1] >= 10
    ok = exact and nondecreasing and floor
    _verdict(10, ok, f"pinned costs exact: {exact}; ratio "
                     f"{float(ratios[-1]):.2f} (= {ratios[-1]}) >= 10 at "
                     f"160x160x144, nondecreasing: {nondecreasing}")


# --------------------------------------------------------------- 11


def test_11_full_scale_parameter_count():
    n = Model(full_config(), seed=0).param_count(include_codebook=True)
    # 26,522,644 with the 3,504 conv biases the instance norms cancel
    ok = n == 26_522_644 - 3_504 and 25_000_000 <= n <= 35_000_000
    _verdict(11, ok, f"full config holds {n:,} parameters "
                     f"(pinned 26,519,140, inside [25M, 35M])")


# --------------------------------------------------------------- 12


def test_12_small_enhancing_tumor_quintile_trend():
    # study: |ET| spans the realizable range; predictions are reference
    # labels corrupted by a fixed ABSOLUTE error budget (a fixed count
    # of rim voxels relabeled to core, a fixed count of edema voxels
    # dropped), so small structures lose proportionally more
    targets = np.geomspace(70, 450, 125)
    rng = np.random.default_rng(12)
    records = []
    for i, t in enumerate(targets):
        case = generate_phantom(1200 + i, et_volume_target=int(round(t)))
        gt = case.labels
        pred = gt.copy()
        et_idx = np.flatnonzero(gt == LABEL_ET)
        ed_idx = np.flatnonzero(gt == LABEL_ED)
        pred.flat[rng.choice(et_idx, size=min(35, et_idx.size),
                             replace=False)] = LABEL_NCR
        pred.flat[rng.choice(ed_idx, size=min(60, ed_idx.size),
                             replace=False)] = 0
        report = evaluate_case(pred, gt, case_id=case.case_id)
        ed, ncr, et = compute_region_volumes(gt)
        records.append(eval_record(report,
                                   {"ED": ed, "NCR": ncr, "ET": et}))

    ets = [r.volumes["ET"] for r in records]
    span = max(ets) / min(ets)
    rows = analyze_et_quintiles(records)
    volumes_ordered = all(rows[i + 1]["mean_et_volume"]
                          > rows[i]["mean_et_volume"]
                          for i in range(len(rows) - 1))
    dice_trend = all(rows[i + 1]["mean_dice"] >= rows[i]["mean_dice"]
                     for i in range(len(rows) - 1))
    ok = span >= 4.0 and volumes_ordered and dice_trend
    means = " ".join(f"{r['mean_dice']:.3f}" for r in rows)
    _verdict(12, ok, f"|ET| spans {span:.1f}x; quintile mean dice "
                     f"Q1..Q5 = {means}, nondecreasing: {dice_trend}")
