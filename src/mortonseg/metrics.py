"""Overlap and boundary-distance metrics over composite tumor regions.

Regions follow the standard composite scheme: whole tumor is every
foreground label, tumor core drops edema, enhancing tumor is label 3
alone. Dice measures volumetric overlap; HD95 takes the 95th percentile
of the two directed boundary-distance sets, which ignores the worst 5%
of outliers that make the plain Hausdorff distance unstable.

Conventions the formulas leave open (recorded here, flagged in reports):
both masks empty gives dice 1.0 and hd95 0.0; exactly one empty boundary
gives hd95 = physical volume diagonal as a sentinel. Percentiles use
linear interpolation between order statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LABEL_NAMES = {0: "background", 1: "ED", 2: "NCR", 3: "ET"}
REGIONS = {"WT": (1, 2, 3), "TC": (2, 3), "ET": (3,)}


def dice(pred: np.ndarray, gt: np.ndarray) -> float:
    """2|P∩G| / (|P|+|G|); both-empty pairs score a perfect 1.0."""
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    p = int(pred.sum())
    g = int(gt.sum())
    if p + g == 0:
        return 1.0
    return 2.0 * int(np.logical_and(pred, gt).sum()) / (p + g)


def boundary_voxels(mask: np.ndarray) -> np.ndarray:
    """(n, 3) coordinates of foreground voxels with a background face-neighbor.

    Out-of-volume counts as background, so foreground touching the array
    edge is boundary.
    """
    mask = np.asarray(mask, dtype=bool)
    padded = np.pad(mask, 1)
    interior = np.ones_like(mask)
    for ax in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[ax] = slice(0, -2)
        hi[ax] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    return np.argwhere(mask & ~interior)


def volume_diagonal(shape: tuple, spacing: tuple) -> float:
    return float(np.linalg.norm([s * sp for s, sp in zip(shape, spacing)]))


def hd95(pred: np.ndarray, gt: np.ndarray,
         spacing: tuple = (1.0, 1.0, 1.0)) -> tuple[float, bool]:
    """95th-percentile symmetric boundary distance.

    Returns (value, sentinel_flag); the flag marks the one-empty-mask
    case where the value is the volume diagonal rather than a measured
    distance. Exact nearest-neighbor search on the boundary point sets.
    """
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    bp = boundary_voxels(pred)
    bg = boundary_voxels(gt)
    if bp.size == 0 and bg.size == 0:
        return 0.0, False
    if bp.size == 0 or bg.size == 0:
        return volume_diagonal(pred.shape, spacing), True
    # imported here, not at the top: scipy.spatial loads scipy.sparse and
    # scipy.linalg, which nothing else in the package needs
    from scipy.spatial import cKDTree

    sp = np.asarray(spacing, dtype=np.float64)
    pp = bp * sp
    gg = bg * sp
    d_pg = cKDTree(gg).query(pp)[0]
    d_gp = cKDTree(pp).query(gg)[0]
    val = max(float(np.percentile(d_pg, 95)), float(np.percentile(d_gp, 95)))
    return val, False


@dataclass
class RegionScore:
    dice: float
    hd95: float
    sentinel: bool  # hd95 is the one-empty fallback, not a distance


@dataclass
class MetricsReport:
    case_id: str
    scores: dict  # region name -> RegionScore

    def mean_dice(self) -> float:
        return float(np.mean([s.dice for s in self.scores.values()]))


def evaluate_case(pred_labels: np.ndarray, gt_labels: np.ndarray,
                  spacing: tuple = (1.0, 1.0, 1.0),
                  case_id: str = "case") -> MetricsReport:
    """Score one label volume against reference over WT, TC and ET."""
    pred_labels = np.asarray(pred_labels)
    gt_labels = np.asarray(gt_labels)
    for name, vol in (("prediction", pred_labels), ("reference", gt_labels)):
        bad = set(np.unique(vol)) - set(LABEL_NAMES)
        if bad:
            raise ValueError(f"{name} contains unknown labels {sorted(bad)}")
    scores = {}
    for region, labels in REGIONS.items():
        pm = np.isin(pred_labels, labels)
        gm = np.isin(gt_labels, labels)
        h, flag = hd95(pm, gm, spacing)
        scores[region] = RegionScore(dice=dice(pm, gm), hd95=h, sentinel=flag)
    return MetricsReport(case_id=case_id, scores=scores)



CSV_HEADER = ["case_id", "region", "dice", "hd95", "sentinel"]


def report_rows(reports: list[MetricsReport]):
    """One CSV_HEADER row per case and region, in REGIONS order."""
    return ([r.case_id, g, r.scores[g].dice, r.scores[g].hd95,
             int(r.scores[g].sentinel)]
            for r in reports for g in REGIONS)
