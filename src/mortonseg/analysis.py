"""Post-hoc studies linking segmentation scores to tumor composition.

Two views over a set of scored cases: (a) five equal-count bins by
per-case mean Dice, reporting the average ED/NCR/ET volumes in each bin,
which exposes whether a particular subregion's size tracks difficulty;
(b) the lowest-Dice bin subdivided into five quintiles by enhancing-tumor
volume, reporting mean Dice per quintile. Ties in either sort resolve by
case id, so the analyses are deterministic for identical inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import REGIONS, MetricsReport

N_BINS = 5


@dataclass
class EvalRecord:
    """One scored case: metrics plus reference-region voxel counts."""
    case_id: str
    dice: dict       # region -> float
    hd95: dict       # region -> float
    volumes: dict    # "ED"/"NCR"/"ET" -> int (reference voxels)

    @property
    def mean_dice(self) -> float:
        return float(np.mean([self.dice[r] for r in REGIONS]))


def eval_record(report: MetricsReport, volumes: dict) -> EvalRecord:
    return EvalRecord(
        case_id=report.case_id,
        dice={r: report.scores[r].dice for r in REGIONS},
        hd95={r: report.scores[r].hd95 for r in REGIONS},
        volumes={k: int(v) for k, v in volumes.items()})


EVAL_CSV_HEADER = ["case_id", "dice_wt", "dice_tc", "dice_et",
                   "hd95_wt", "hd95_tc", "hd95_et",
                   "ed_volume", "ncr_volume", "et_volume"]


def write_eval_csv(path, records: list[EvalRecord]) -> None:
    write_rows_csv(path, EVAL_CSV_HEADER, (
        [r.case_id, *(float(r.dice[g]) for g in REGIONS),
         *(float(r.hd95[g]) for g in REGIONS),
         r.volumes["ED"], r.volumes["NCR"], r.volumes["ET"]]
        for r in sorted(records, key=lambda r: r.case_id)))


def read_eval_csv(path) -> list[EvalRecord]:
    return [EvalRecord(
        case_id=row["case_id"],
        dice={g: float(row[f"dice_{g.lower()}"]) for g in REGIONS},
        hd95={g: float(row[f"hd95_{g.lower()}"]) for g in REGIONS},
        volumes={k: int(row[f"{k.lower()}_volume"])
                 for k in ("ED", "NCR", "ET")})
        for row in read_rows_csv(path, EVAL_CSV_HEADER)]


def _dice_bins(records: list[EvalRecord]) -> list[list[EvalRecord]]:
    if len(records) < N_BINS:
        raise ValueError(f"need at least {N_BINS} scored cases")
    ordered = sorted(records, key=lambda r: (r.mean_dice, r.case_id))
    return [list(chunk) for chunk in np.array_split(np.array(ordered,
                                                             dtype=object),
                                                    N_BINS)]


def analyze_dice_bins(records: list[EvalRecord]) -> list[dict]:
    """Equal-count mean-Dice bins (1 = lowest) with mean region volumes."""
    rows = []
    for i, bin_recs in enumerate(_dice_bins(records), start=1):
        dices = [r.mean_dice for r in bin_recs]
        rows.append({
            "bin": i, "count": len(bin_recs),
            "dice_lo": min(dices), "dice_hi": max(dices),
            "mean_ed_volume": float(np.mean([r.volumes["ED"] for r in bin_recs])),
            "mean_ncr_volume": float(np.mean([r.volumes["NCR"] for r in bin_recs])),
            "mean_et_volume": float(np.mean([r.volumes["ET"] for r in bin_recs]))})
    return rows


def analyze_et_quintiles(records: list[EvalRecord]) -> list[dict]:
    """Quintiles by |ET| inside the lowest-Dice bin, mean Dice each."""
    lowest = _dice_bins(records)[0]
    if len(lowest) < N_BINS:
        raise ValueError(
            f"lowest Dice bin holds {len(lowest)} cases; need >= {N_BINS}")
    ordered = sorted(lowest, key=lambda r: (r.volumes["ET"], r.case_id))
    rows = []
    for i, chunk in enumerate(np.array_split(np.array(ordered, dtype=object),
                                             N_BINS), start=1):
        recs = list(chunk)
        rows.append({
            "quintile": i, "count": len(recs),
            "mean_et_volume": float(np.mean([r.volumes["ET"] for r in recs])),
            "mean_dice_wt": float(np.mean([r.dice["WT"] for r in recs])),
            "mean_dice_tc": float(np.mean([r.dice["TC"] for r in recs])),
            "mean_dice_et": float(np.mean([r.dice["ET"] for r in recs])),
            "mean_dice": float(np.mean([r.mean_dice for r in recs]))})
    return rows


def write_rows_csv(path, header: list, rows) -> None:
    """Write a header line, then one line per row (no rows: header only).

    Floats print as %.6f and anything else as str(), so a caller that
    wants another float format passes a string.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.6f}" if isinstance(v, float) else v for v in row]
                    for row in rows)


def read_rows_csv(path, header: list) -> list[dict]:
    """Rows of a UTF-8 CSV file as dicts; `header`'s columns must be there."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.DictReader(fh.readlines())
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text: {e}") from None
        missing = [c for c in header if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: no column {', '.join(missing)}")
        rows = []
        for row in reader:
            # DictReader fills a short row with None values and files a
            # long row's extra fields under the key None
            if None in row or None in row.values():
                raise ValueError(f"{path}: line {reader.line_num} does not "
                                 f"have the header's {len(reader.fieldnames)}"
                                 " fields")
            rows.append(row)
        return rows
