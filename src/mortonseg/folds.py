"""Systematic five-fold construction stratified on intensity variation.

Cases are sorted by their foreground-intensity-variation statistic and
cut into five equal-frequency bins, so every bin is populated no matter
how skewed the fiv distribution is. Within each bin the cases, still in
fiv order, are dealt in alternating-direction laps over a seeded fold
order: consecutive laps pair a bin's low ranks with its high ranks, so
every fold receives the same within-bin spread instead of a random
draw from it (random dealing leaves fold means several percent apart
on long-tailed fiv distributions; the paired deal keeps them tight).
Leftover cases of indivisible bins go to the lightest folds. The
result: every fold draws the same number of cases (+-1) from every fiv
stratum, per-fold fiv means hug the global mean, and the whole
assignment is a pure function of (case stats, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import make_rng

N_FOLDS = 5
_SHUFFLE_STREAM = 13
FORMAT_VERSION = "1"


@dataclass
class FoldAssignment:
    version: str
    seed: int
    bin_edges: list        # 6 floats: min, 4 interior boundaries, max
    assignment: dict       # case_id -> fold in {1..5}
    bins: dict             # case_id -> bin in {1..5}

    def fold_cases(self, fold: int) -> list:
        return sorted(c for c, f in self.assignment.items() if f == fold)

    def to_json(self) -> str:
        return json.dumps(
            {"version": self.version, "seed": self.seed,
             "bin_edges": self.bin_edges, "assignment": self.assignment,
             "bins": self.bins}, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FoldAssignment":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("top level must be a JSON object")
        if d["version"] != FORMAT_VERSION:
            raise ValueError(f"'version' must be {FORMAT_VERSION!r}, "
                             f"got {d['version']!r}")
        for field in ("assignment", "bins"):
            if not (isinstance(d[field], dict) and all(
                    type(v) is int and 1 <= v <= N_FOLDS
                    for v in d[field].values())):
                raise ValueError(f"'{field}' must map cases to 1..{N_FOLDS}")
        edges = d["bin_edges"]
        if not (isinstance(edges, list) and len(edges) == N_FOLDS + 1
                and all(type(e) in (int, float) for e in edges)):
            raise ValueError(f"'bin_edges' must hold {N_FOLDS + 1} numbers")
        if type(d["seed"]) is not int:
            raise ValueError(f"'seed' must be an integer, got {d['seed']!r}")
        return cls(version=d["version"], seed=d["seed"],
                   bin_edges=[float(x) for x in edges],
                   assignment=d["assignment"], bins=d["bins"])


def build_systematic_folds(cases, seed: int) -> FoldAssignment:
    """cases: iterable of (case_id, fiv) pairs."""
    pairs = [(str(cid), float(fiv)) for cid, fiv in cases]
    if len(pairs) < N_FOLDS:
        raise ValueError(f"need at least {N_FOLDS} cases, got {len(pairs)}")
    if len(set(cid for cid, _ in pairs)) != len(pairs):
        raise ValueError("case ids must be unique")

    # fiv ascending, id as the deterministic tiebreak
    pairs.sort(key=lambda p: (p[1], p[0]))
    chunks = np.array_split(np.arange(len(pairs)), N_FOLDS)

    edges = [pairs[0][1]]
    for ch in chunks[1:]:
        edges.append(pairs[int(ch[0])][1])
    edges.append(pairs[-1][1])

    assignment = {}
    bins = {}
    extras = np.zeros(N_FOLDS, dtype=np.int64)  # leftover load per fold
    for b, chunk in enumerate(chunks):
        # cases stay fiv-sorted; laps alternate direction over a seeded
        # fold order, pairing low ranks with high ranks so every fold
        # sees the same within-bin spread (mean balance by construction)
        order = np.arange(N_FOLDS)
        make_rng(seed, _SHUFFLE_STREAM, b).shuffle(order)
        rank = {int(f): k for k, f in enumerate(order)}
        whole = (len(chunk) // N_FOLDS) * N_FOLDS
        taken = set()  # folds already given a leftover from this bin
        for j, idx in enumerate(chunk):
            lap, pos = divmod(j, N_FOLDS)
            if j < whole:
                if lap % 2 == 1:
                    pos = N_FOLDS - 1 - pos
                f = int(order[pos])
            else:
                # leftovers go to the lightest folds so overall fold
                # sizes never differ by more than one case
                f = min((g for g in range(N_FOLDS) if g not in taken),
                        key=lambda g: (int(extras[g]), rank[g]))
                extras[f] += 1
                taken.add(f)
            cid = pairs[int(idx)][0]
            assignment[cid] = f + 1
            bins[cid] = b + 1

    return FoldAssignment(version=FORMAT_VERSION, seed=int(seed),
                          bin_edges=[float(e) for e in edges],
                          assignment=assignment, bins=bins)


def save_folds(path, fa: FoldAssignment) -> None:
    Path(path).write_text(fa.to_json())


def load_folds(path) -> FoldAssignment:
    try:
        return FoldAssignment.from_json(Path(path).read_text())
    except KeyError as e:
        raise ValueError(f"{path}: no field {e}") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
