"""Synthetic multi-modal cases with nested ellipsoidal tumor regions.

A phantom stands in for one subject: four modality volumes over a brain
ellipsoid (background exactly zero) and a label volume with a necrotic
core (2) wrapped by an enhancing rim (3) wrapped by an edema shell (1).
The rim radius is solved numerically so the enhancing-tumor voxel count
lands within 20% of a requested target, which gives studies direct
control over the quantity the volume-stratified analyses bin on.

Per-case heterogeneity tau scales both the tumor's contrast offsets and
its internal noise, and that noise replaces the healthy-tissue noise
under the tumor rather than stacking on it. Region contrast relative to
tumor noise is therefore roughly constant (cases stay equally
learnable), while the foreground intensity variation statistic runs
from well below the brain-noise level at small tau to several times it
at large tau, which is exactly the spread the fold builder needs to
stratify on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import make_rng
from .volume_io import read_volume, write_volume

MODALITY_NAMES = ("t1", "t1ce", "t2", "flair")
LABEL_ED, LABEL_NCR, LABEL_ET = 1, 2, 3

_CASE_STREAM = 101  # rng path tag for phantom synthesis

BACKGROUND_NOISE = 0.06   # healthy-tissue noise, fixed across cases
TAU_RANGE = (0.15, 3.5)   # log-uniform heterogeneity range


class RejectedDraw(ValueError):
    """This seed's geometry cannot realize the request; another seed may."""


@dataclass
class CaseStats:
    fiv: float
    ed_volume: int
    ncr_volume: int
    et_volume: int

    def to_dict(self) -> dict:
        return {"fiv": self.fiv, "ed_volume": self.ed_volume,
                "ncr_volume": self.ncr_volume, "et_volume": self.et_volume}


@dataclass
class CaseRecord:
    case_id: str
    modalities: np.ndarray  # (4, X, Y, Z) float32
    labels: np.ndarray      # (X, Y, Z) uint8
    stats: CaseStats


def compute_region_volumes(labels: np.ndarray) -> tuple[int, int, int]:
    return (int((labels == LABEL_ED).sum()), int((labels == LABEL_NCR).sum()),
            int((labels == LABEL_ET).sum()))


def compute_fiv(modalities: np.ndarray, labels: np.ndarray) -> float:
    """Foreground intensity variation of one case.

    Per modality: z-normalize over the nonzero (brain) voxels, then take
    the standard deviation over whole-tumor voxels; average the four
    modality values. Unitless and invariant to per-modality affine
    intensity rescaling. Raises on an empty tumor (such a case carries
    no signal for stratification and must be excluded upstream).
    """
    wt = labels > 0
    if not wt.any():
        raise ValueError("whole tumor is empty; fiv undefined")
    vals = []
    for m in range(modalities.shape[0]):
        vol = modalities[m]
        brain = vol != 0
        if not brain.any():
            raise ValueError(f"modality {m} has no nonzero voxels")
        mu = float(vol[brain].mean())
        sd = float(vol[brain].std())
        if sd == 0.0:
            vals.append(0.0)
            continue
        z = (vol[wt] - mu) / sd
        vals.append(float(z.std()))
    return float(np.mean(vals))


def _ellipsoid_rho(shape, center, axis_scale) -> np.ndarray:
    """Scaled distance field: rho <= r selects an ellipsoid of radius r."""
    grids = np.ogrid[tuple(slice(0, s) for s in shape)]
    acc = np.zeros(shape, dtype=np.float64)
    for g, c, a in zip(grids, center, axis_scale):
        acc = acc + ((g - c) / a) ** 2
    return np.sqrt(acc)


def check_shape(shape) -> tuple:
    """shape as a tuple of ints; refused below 16 voxels on any axis."""
    shape = tuple(int(s) for s in shape)
    if min(shape) < 16:
        raise ValueError(f"shape must be at least 16 voxels per axis, got {shape}")
    return shape


def generate_phantom(seed: int, shape=(32, 32, 32), et_volume_target: int = 150,
                     heterogeneity: float | None = None,
                     case_id: str | None = None) -> CaseRecord:
    """Deterministic synthetic case; |ET| within 20% of the target.

    heterogeneity overrides the per-seed draw of tau; target 0 produces
    a rim-free tumor (whole tumor = edema + core). A seed whose geometry
    cannot realize the request raises RejectedDraw.
    """
    shape = check_shape(shape)
    if et_volume_target < 0:
        raise ValueError("et_volume_target must be >= 0")
    rng = make_rng(seed, _CASE_STREAM)

    center = np.array(shape) / 2.0 + rng.uniform(-0.03, 0.03, 3) * np.array(shape)
    brain_r = 0.42 * min(shape) * rng.uniform(0.95, 1.05)
    brain_scale = rng.uniform(0.9, 1.1, 3)
    rho_brain = _ellipsoid_rho(shape, center, brain_scale)
    brain = rho_brain <= brain_r

    tum_center = center + rng.uniform(-0.10, 0.10, 3) * np.array(shape)
    tum_scale = rng.uniform(0.85, 1.15, 3)
    rho = _ellipsoid_rho(shape, tum_center, tum_scale)

    r_core = 2.2 + rng.uniform(0.0, 1.2)
    core_like = rho <= r_core

    if et_volume_target == 0:
        r_rim = r_core
    else:
        # analytic first guess, then bisection on the discrete count
        vol_scale = float(np.prod(tum_scale))
        guess = (r_core ** 3 + 3.0 * et_volume_target
                 / (4.0 * np.pi * vol_scale)) ** (1.0 / 3.0)
        lo, hi = r_core, max(guess * 1.6, r_core + 4.0)
        r_rim = guess
        for _ in range(40):
            r_rim = 0.5 * (lo + hi)
            count = int(((rho > r_core) & (rho <= r_rim)).sum())
            if count < et_volume_target:
                lo = r_rim
            else:
                hi = r_rim
        r_rim = 0.5 * (lo + hi)

    rim = (rho > r_core) & (rho <= r_rim)
    achieved = int(rim.sum())
    if et_volume_target > 0 and not (0.8 * et_volume_target <= achieved
                                     <= 1.2 * et_volume_target):
        raise RejectedDraw(
            f"cannot realize |ET|={et_volume_target} on shape {shape}: "
            f"closest discrete count is {achieved}")

    shell_t = rng.uniform(2.0, 3.2)
    r_shell = r_rim + shell_t
    if r_shell >= 0.9 * brain_r:
        raise RejectedDraw(
            f"tumor (outer radius {r_shell:.1f}) does not fit the brain "
            f"(radius {brain_r:.1f}) on shape {shape}")
    shell = (rho > r_rim) & (rho <= r_shell)

    labels = np.zeros(shape, dtype=np.uint8)
    labels[shell & brain] = LABEL_ED
    labels[rim & brain] = LABEL_ET
    labels[core_like & brain] = LABEL_NCR

    tau = heterogeneity if heterogeneity is not None else float(
        np.exp(rng.uniform(np.log(TAU_RANGE[0]), np.log(TAU_RANGE[1]))))

    mods = np.zeros((len(MODALITY_NAMES),) + shape, dtype=np.float32)
    wt = labels > 0
    for m in range(len(MODALITY_NAMES)):
        base = rng.uniform(0.55, 0.85)
        vol = np.zeros(shape, dtype=np.float64)
        vol[brain] = base + rng.normal(0.0, BACKGROUND_NOISE, int(brain.sum()))
        # tumor noise replaces (not adds to) the healthy noise, so low-tau
        # tumors are smoother than brain and fiv can drop below 1
        vol[wt] = base
        for lab in (LABEL_ED, LABEL_NCR, LABEL_ET):
            mask = labels == lab
            if not mask.any():
                continue
            off = (0.10 + rng.uniform(0.0, 0.20)) * rng.choice((-1.0, 1.0)) * tau
            vol[mask] += off
        vol[wt] += rng.normal(0.0, BACKGROUND_NOISE * tau, int(wt.sum()))
        # background stays exactly zero: brain mask defines "nonzero"
        vol[brain & (np.abs(vol) < 1e-6)] = 1e-6
        vol[~brain] = 0.0
        mods[m] = vol.astype(np.float32)

    ed_v, ncr_v, et_v = compute_region_volumes(labels)
    stats = CaseStats(fiv=compute_fiv(mods, labels), ed_volume=ed_v,
                      ncr_volume=ncr_v, et_volume=et_v)
    return CaseRecord(case_id=case_id or f"phantom_{seed:04d}",
                      modalities=mods, labels=labels, stats=stats)


def normalize_modalities(modalities: np.ndarray) -> np.ndarray:
    """Per-modality z-score over nonzero voxels; background stays zero.

    The network always sees inputs through this map, train and eval.
    """
    out = modalities.astype(np.float32).copy()
    for m in range(out.shape[0]):
        nz = out[m] != 0
        if not nz.any():
            continue
        mu = out[m][nz].mean()
        sd = out[m][nz].std()
        out[m][nz] = (out[m][nz] - mu) / (sd if sd > 0 else 1.0)
    return out


# -- case directories --------------------------------------------------------


def save_case(root, case: CaseRecord) -> Path:
    d = Path(root) / case.case_id
    d.mkdir(parents=True, exist_ok=True)
    for m, name in enumerate(MODALITY_NAMES):
        write_volume(d / f"{name}.vol", case.modalities[m], name=name)
    write_volume(d / "labels.vol", case.labels, name="labels")
    (d / "meta.json").write_text(json.dumps(
        {"case_id": case.case_id, "stats": case.stats.to_dict()},
        sort_keys=True, indent=2) + "\n")
    return d


def read_meta(case_dir) -> tuple[str, CaseStats]:
    """(case_id, stats) from a case's meta.json; errors name the file."""
    path = Path(case_dir) / "meta.json"
    try:
        meta = json.loads(path.read_text())
        s = meta["stats"]
        return meta["case_id"], CaseStats(
            fiv=float(s["fiv"]), ed_volume=int(s["ed_volume"]),
            ncr_volume=int(s["ncr_volume"]), et_volume=int(s["et_volume"]))
    except KeyError as e:
        raise ValueError(f"{path}: no field {e}") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None


def load_case(path) -> CaseRecord:
    d = Path(path)
    case_id, stats = read_meta(d)
    mods = []
    for name in MODALITY_NAMES:
        vol, _ = read_volume(d / f"{name}.vol")
        mods.append(vol)
    labels, _ = read_volume(d / "labels.vol")
    return CaseRecord(case_id=case_id,
                      modalities=np.stack(mods).astype(np.float32),
                      labels=labels.astype(np.uint8), stats=stats)


def load_dataset(root) -> list[CaseRecord]:
    root = Path(root)
    dirs = sorted(p for p in root.iterdir() if (p / "meta.json").exists())
    if not dirs:
        raise FileNotFoundError(f"no cases under {root}")
    return [load_case(p) for p in dirs]
