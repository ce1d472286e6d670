"""The four benchmark workloads, driven through mortonseg's public functions.

A workload is built from a seed (``build``, repeated to time set-up),
warmed up once, then run as a closed loop of ``unit`` calls: the next
unit starts when the previous one returns. ``finish`` does the work a
user pays for once at the end of a run (the training workloads save
their state), and ``checks`` verifies outputs after the timed phase.

Every call into the package goes through a module attribute looked up at
call time (``network.sliding_window_infer``, not a name imported here),
so the tracer's rebinding sees it.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from statistics import median

import numpy as np
from scipy import ndimage

import mortonseg.checkpoint as checkpoint
import mortonseg.metrics as metrics
import mortonseg.morton as morton
import mortonseg.network as network
import mortonseg.phantom as phantom
import mortonseg.ssm as ssm
import mortonseg.tensor as T
from mortonseg.rng import make_rng

train_mod = sys.modules["mortonseg.train"]  # the package attribute is the function

HERE = Path(__file__).resolve().parent

# CLI defaults of `mortonseg train` (augmentation on, batch 1)
TRAIN_LR = 1e-4
TRAIN_WEIGHT_DECAY = 1e-4
TRAIN_CASES = 8
TRAIN_SHAPE = (32, 32, 32)
ET_RANGE = (60, 500)  # `mortonseg phantoms --et-range` default
LOSS_STEP = 8         # loss_final is read here; every run gets this far
SAVE_REPEATS = 3

SCAN_GRID = (20, 20, 18)  # 1/8 skip grid of a 160x160x144 volume
SCAN_CHANNELS = 128
SCAN_STATE = 16
SCAN_REL_TOL = 1e-4

EVAL_SHAPE = (64, 64, 64)
EVAL_WINDOW = (32, 32, 32)
EVAL_CASES = 8
EVAL_ET_TARGET = 400
EVAL_HETEROGENEITY = 3.0
EVAL_CHECKPOINT = HERE / "data" / "eval_desk.mseg"
# recorded when make_checkpoint.py wrote the file; a rerun must reproduce it
EVAL_CHECKPOINT_SHA256 = (
    "35b08b3d5875c6e1e6d5bbd6d499ab394c25e2060dc4b31d1dbba34ec4061714")
ORACLE_TOL = 1e-6


class Check:
    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name, self.ok, self.detail = name, bool(ok), detail

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def realize_phantom(seed: int, stream: int, i: int, **kwargs):
    """Case i of a seeded stream, redrawn like `mortonseg phantoms` on failure."""
    seeds = make_rng(seed, stream, i)
    for _ in range(20):
        try:
            return phantom.generate_phantom(int(seeds.integers(0, 2 ** 31 - 1)),
                                            case_id=f"case_{i:03d}", **kwargs)
        except ValueError:
            continue
    raise ValueError(f"no phantom realized for case {i} of stream {stream}")


def train_phantoms(seed: int) -> list:
    lo, hi = ET_RANGE
    out = []
    for i in range(TRAIN_CASES):
        target = int(round(float(np.exp(
            make_rng(seed, 32, i).uniform(np.log(lo), np.log(hi))))))
        out.append(realize_phantom(seed, 31, i, shape=TRAIN_SHAPE,
                                   et_volume_target=target))
    return out


def eval_phantoms(seed: int, n: int, stream: int = 41) -> list:
    return [realize_phantom(seed, stream, i, shape=EVAL_SHAPE,
                            et_volume_target=EVAL_ET_TARGET,
                            heterogeneity=EVAL_HETEROGENEITY)
            for i in range(n)]


class Workload:
    name = ""
    voxels_per_unit = 0
    min_units = 1

    def build(self, seed: int) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.unit()

    def unit(self) -> None:
        raise NotImplementedError

    def finish(self, out_dir: Path, tracer=None) -> dict:
        return {}

    def checks(self) -> list:
        return []

    def input_digest(self) -> str:
        raise NotImplementedError

    def result_metrics(self) -> dict:
        """Workload-specific outputs: {name: (value, unit)}."""
        return {}


class TrainWorkload(Workload):
    min_units = LOSS_STEP

    def __init__(self, name: str, cfg_fn):
        self.name, self.cfg_fn = name, cfg_fn
        self.voxels_per_unit = int(np.prod(TRAIN_SHAPE))

    def build(self, seed):
        self.model = self.opt = None  # release the previous build first
        self.seed = seed
        self.cases = train_phantoms(seed)
        self.model = network.Model(self.cfg_fn(), seed=seed)
        self.step = 0
        self.losses = []

    def unit(self):
        result, self.opt = train_mod.train(
            self.model, self.cases, steps=1, lr=TRAIN_LR,
            weight_decay=TRAIN_WEIGHT_DECAY, seed=self.seed, augment=True,
            optimizer=self.opt, start_step=self.step)
        self.losses.append(result.losses[0]["total"])
        self.step += 1

    def finish(self, out_dir, tracer=None):
        self.paths = [out_dir / f"{self.name}-{os.getpid()}-{i}.mseg"
                      for i in range(2)]
        times = []
        for i in range(SAVE_REPEATS):
            idx = tracer.open("save") if tracer else None
            t0 = time.perf_counter()
            checkpoint.save_checkpoint(
                self.paths[i % 2],
                train_mod.training_state(self.model, self.opt, self.step))
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.close(idx)
        self.save_s = median(times)
        self.save_bytes = self.paths[0].stat().st_size
        return {"checkpoint.bytes": self.save_bytes}

    def checks(self):
        out = [Check("losses_finite", np.all(np.isfinite(self.losses)),
                     f"{len(self.losses)} steps")]
        sha = [file_sha256(p) for p in self.paths]
        out.append(Check("saves_byte_identical", sha[0] == sha[1], sha[0]))
        state = train_mod.training_state(self.model, self.opt, self.step)
        loaded = checkpoint.load_checkpoint(self.paths[0])
        same = loaded.keys() == state.keys() and all(
            np.array_equal(loaded[k], np.asarray(v, dtype="<f4"))
            for k, v in state.items())
        out.append(Check("load_round_trip_exact", same,
                         f"{len(loaded)} entries"))
        for p in self.paths:
            p.unlink()
        return out

    def input_digest(self):
        return digest(*[a for c in self.cases for a in (c.modalities, c.labels)])

    def result_metrics(self):
        return {"save_s": (self.save_s, "s"),
                "loss_final": (self.losses[LOSS_STEP], "nat")}


def _to_f64(params):
    """Same parameter values, as f64 leaves (for the reference run)."""
    def conv(obj):
        if obj is None:
            return None
        if isinstance(obj, T.Tensor):
            return T.Tensor(obj.data.astype(np.float64), requires_grad=True,
                            dtype=np.float64)
        return replace(obj, **{f.name: conv(getattr(obj, f.name))
                               for f in fields(obj)})
    return conv(params)


def _rel_err(a, ref) -> float:
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


class ScanWorkload(Workload):
    name = "scan_long"
    voxels_per_unit = int(np.prod(SCAN_GRID))

    def build(self, seed):
        rng = make_rng(seed, 51)
        self.params = ssm.init_ssm_params(rng, SCAN_CHANNELS, SCAN_STATE)
        self.perm = morton.build_permutation(SCAN_GRID)
        shape = (SCAN_CHANNELS,) + SCAN_GRID
        self.x = rng.normal(size=shape).astype(np.float32)
        self.g = rng.normal(size=shape).astype(np.float32)

    def _run(self, params, x, g):
        for t in params.tensors():
            t.grad = None
        xt = T.Tensor(x, requires_grad=True, dtype=x.dtype)
        y = ssm.bidir_scan_block(xt, params, self.perm)
        y.backward(g)
        return y.data, xt.grad

    def unit(self):
        self.y, self.gx = self._run(self.params, self.x, self.g)

    def checks(self):
        y32, gx32 = self.y, self.gx
        with T.default_dtype(np.float64):
            y64, gx64 = self._run(_to_f64(self.params),
                                  self.x.astype(np.float64),
                                  self.g.astype(np.float64))
        ey, eg = _rel_err(y32, y64), _rel_err(gx32, gx64)
        out = [Check("output_matches_f64", ey < SCAN_REL_TOL, f"rel {ey:.3g}"),
                Check("input_grad_matches_f64", eg < SCAN_REL_TOL,
                      f"rel {eg:.3g}")]
        with T.no_grad():
            seq = T.layer_norm(ssm.gather_sequence(T.Tensor(self.x), self.perm))
            rev = ssm.selective_scan(seq, self.params.scan, "reverse").data
            ref = T.flip(ssm.selective_scan(T.flip(seq, 0), self.params.scan,
                                            "forward"), 0).data
        out.append(Check("reverse_is_flip_scan_flip",
                         rev.tobytes() == ref.tobytes(), "bit-exact"))
        return out

    def input_digest(self):
        return digest(self.x, self.g, *[t.data for t in self.params.tensors()])


def _oracle_boundary(mask):
    face = ndimage.generate_binary_structure(3, 1)
    return np.argwhere(mask & ~ndimage.binary_erosion(mask, face,
                                                      border_value=0))


def _oracle_hd95(pred, gt) -> float:
    """Brute-force all-pairs boundary distances (no kd-tree)."""
    bp, bg = _oracle_boundary(pred).astype(float), _oracle_boundary(gt).astype(float)

    def directed(a, b):
        return np.concatenate([
            np.sqrt(((a[i:i + 256, None, :] - b[None]) ** 2).sum(-1)).min(1)
            for i in range(0, len(a), 256)])

    return max(float(np.percentile(directed(bp, bg), 95)),
               float(np.percentile(directed(bg, bp), 95)))


class EvalWorkload(Workload):
    name = "eval_window"
    voxels_per_unit = int(np.prod(EVAL_SHAPE))

    def build(self, seed):
        self.model = None
        sha = file_sha256(EVAL_CHECKPOINT)
        if sha != EVAL_CHECKPOINT_SHA256:
            raise RuntimeError(f"{EVAL_CHECKPOINT} has sha256 {sha}, "
                               f"expected {EVAL_CHECKPOINT_SHA256}")
        self.cases = eval_phantoms(seed, EVAL_CASES)
        self.model = network.Model(network.desk_config(), seed=0)
        self.model.load_state_dict(checkpoint.load_checkpoint(EVAL_CHECKPOINT))
        self.i = 0
        self.reports = {}
        self.first_pred = None

    def score(self, k: int):
        case = self.cases[k]
        x = phantom.normalize_modalities(case.modalities)
        logits = network.sliding_window_infer(self.model, x, EVAL_WINDOW)
        pred = np.argmax(logits, axis=0).astype(np.uint8)
        self.reports[k] = metrics.evaluate_case(pred, case.labels,
                                                case_id=case.case_id)
        if k == 0:
            self.first_pred = pred

    def unit(self):
        self.score(self.i % EVAL_CASES)
        self.i += 1

    def finish(self, out_dir, tracer=None):
        for k in range(EVAL_CASES):  # cases the timed phase did not reach
            if k not in self.reports:
                self.score(k)
        return {}

    def checks(self):
        out = []
        case = self.cases[0]
        worst = 0.0
        for region, labels in metrics.REGIONS.items():
            pm = np.isin(self.first_pred, labels)
            gm = np.isin(case.labels, labels)
            size = np.count_nonzero(pm) + np.count_nonzero(gm)
            d = 2.0 * np.count_nonzero(pm & gm) / size if size else 1.0
            s = self.reports[0].scores[region]
            worst = max(worst, abs(d - s.dice), abs(_oracle_hd95(pm, gm) - s.hd95))
        out.append(Check("first_case_matches_oracle", worst < ORACLE_TOL,
                         f"max abs diff {worst:.3g}"))
        for k in range(EVAL_CASES):
            bad = [r for r, s in self.reports[k].scores.items() if s.sentinel]
            out.append(Check(f"no_sentinel_case_{k}", not bad,
                             ",".join(bad) or "WT,TC,ET measured"))
        return out

    def input_digest(self):
        return digest(np.frombuffer(bytes.fromhex(EVAL_CHECKPOINT_SHA256),
                                    np.uint8),
                      *[a for c in self.cases for a in (c.modalities, c.labels)])

    def result_metrics(self):
        scores = [s for r in self.reports.values() for s in r.scores.values()]
        return {"dice_mean": (float(np.mean([s.dice for s in scores])), "1"),
                "hd95_mean": (float(np.mean([s.hd95 for s in scores])), "voxel")}


# why each workload exists: README.md in this directory
WORKLOADS = {
    "train_desk": lambda: TrainWorkload("train_desk", network.desk_config),
    "train_full": lambda: TrainWorkload("train_full", network.full_config),
    "scan_long": ScanWorkload,
    "eval_window": EvalWorkload,
}
