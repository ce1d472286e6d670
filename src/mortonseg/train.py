"""Training loop: Adam with decoupled weight decay, seeded augmentation.

Determinism contract: step i draws everything stochastic (case choice
and augmentation coins) from the stream (seed, 1, i). No generator state
survives between steps, so a run resumed from a step-k checkpoint
replays steps k, k+1, ... with exactly the arrays an uninterrupted run
would have seen: resume is bit-identical by construction, not by
serializing RNG internals. A training state keys the AdamW moments by
parameter name, so a state keyed otherwise is refused, not misread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Model, ce_dice_loss
from .phantom import CaseRecord, normalize_modalities
from .rng import make_rng
from .tensor import NumericalError, Tensor

_STEP_STREAM = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_BLOCK = 32768  # elements per AdamW block: temporaries stay in cache


class AdamW:
    """Adam moments plus decoupled weight decay (decay skips the moments).

    A step is `begin_step`, which advances the step count and the bias
    corrections, then `update(p, g)` for each parameter. `train` passes
    `update` to backward as its sink, so each parameter steps as soon as
    its gradient is final and no other gradient need be alive; `step`
    does the same from the gradients on `.grad`. `update` works on the
    parameter's data and its moments `m`, `v` in place, one block of
    `_BLOCK` elements of the flattened arrays at a time, so the
    temporaries stay in cache and nothing of a parameter's size is
    allocated. Every element goes through the same IEEE operations, in
    the same order, as the per-tensor formula.
    """

    def __init__(self, params: list, lr: float = 1e-4,
                 weight_decay: float = 1e-4, beta1: float = ADAM_BETA1,
                 beta2: float = ADAM_BETA2):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = beta1, beta2
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self._slot = {id(p): i for i, p in enumerate(self.params)}

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One step from the gradients on `.grad`; a parameter without
        one is left as it is."""
        self.begin_step()
        for p in self.params:
            if p.grad is not None:
                self.update(p, p.grad)

    def begin_step(self) -> None:
        """Advance the step count, and with it the bias corrections."""
        self.t += 1

    def update(self, p: Tensor, g: np.ndarray) -> None:
        """Step parameter p with its gradient g; a tensor this optimizer
        does not own gets g on its `.grad` instead."""
        i = self._slot.get(id(p))
        if i is None:
            p.accumulate_grad(g)
            return
        b1, b2, lr = self.beta1, self.beta2, self.lr
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        decay = lr * self.weight_decay
        # reshape(-1) of a contiguous array is a view: writes land in p, m, v
        w, g, m, v = (a.reshape(-1) for a in (p.data, g, self.m[i], self.v[i]))
        s1 = np.empty(min(w.size, _BLOCK), dtype=w.dtype)
        s2 = np.empty_like(s1)
        for lo in range(0, w.size, _BLOCK):
            wb, gb, mb, vb = (a[lo:lo + _BLOCK] for a in (w, g, m, v))
            t1, t2 = s1[:wb.size], s2[:wb.size]
            if self.weight_decay:  # w -= decay * w
                np.multiply(decay, wb, out=t1)
                np.subtract(wb, t1, out=wb)
            # m = b1 * m + (1 - b1) * g
            np.multiply(b1, mb, out=mb)
            np.multiply(1.0 - b1, gb, out=t1)
            np.add(mb, t1, out=mb)
            # v = b2 * v + (1 - b2) * g * g
            np.multiply(b2, vb, out=vb)
            np.multiply(1.0 - b2, gb, out=t1)
            np.multiply(t1, gb, out=t1)
            np.add(vb, t1, out=vb)
            # w -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(mb, bc1, out=t1)
            np.multiply(lr, t1, out=t1)
            np.divide(vb, bc2, out=t2)
            np.sqrt(t2, out=t2)
            np.add(t2, ADAM_EPS, out=t2)
            np.divide(t1, t2, out=t1)
            np.subtract(wb, t1, out=wb)

    # -- checkpoint plumbing ------------------------------------------------

    def state_entries(self, names: list) -> dict:
        """Step count and moments, keyed by the parameters' names.

        The moment arrays are the live ones, not copies: they are valid
        until the next `update`, which overwrites them in place. Copying
        here would hold a second set of moments while a checkpoint is
        written.
        """
        out = {"opt.t": np.array([float(self.t)], dtype=np.float32)}
        for name, m, v in zip(names, self.m, self.v, strict=True):
            out[f"opt.m.{name}"], out[f"opt.v.{name}"] = m, v
        return out

    def load_state_entries(self, entries: dict, names: list) -> None:
        """Take copies of saved moments; on error the state is unchanged."""
        t = int(round(float(entries["opt.t"][0])))
        ms, vs = [], []
        for name, p in zip(names, self.params, strict=True):
            m, v = entries[f"opt.m.{name}"], entries[f"opt.v.{name}"]
            if m.shape != p.data.shape or v.shape != p.data.shape:
                raise ValueError(f"optimizer state for '{name}' does not "
                                 "match its parameter shape")
            ms.append(np.array(m, dtype=p.data.dtype))
            vs.append(np.array(v, dtype=p.data.dtype))
        self.t, self.m, self.v = t, ms, vs


_ROT_PLANES = ((0, 1), (0, 2), (1, 2))  # spatial axis pairs


def augment_case(modalities: np.ndarray, labels: np.ndarray,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded geometric + intensity augmentation, draw order fixed.

    Flips per axis (p=.5 each); one axis-aligned 90-degree rotation
    (p=.5) where an odd quarter-turn falls back to a half-turn when the
    two extents differ (shape must be preserved); per-modality intensity
    shift (p=.1, +-0.1) and scale (p=.1, x0.9-1.1). Labels follow the
    geometric part only.
    """
    mods = modalities
    labs = labels
    for ax in range(3):
        if rng.random() < 0.5:
            mods = np.flip(mods, axis=ax + 1)
            labs = np.flip(labs, axis=ax)
    if rng.random() < 0.5:
        plane = _ROT_PLANES[int(rng.integers(0, 3))]
        k = int(rng.integers(1, 4))
        if k % 2 == 1 and labs.shape[plane[0]] != labs.shape[plane[1]]:
            k = 2
        mods = np.rot90(mods, k=k, axes=(plane[0] + 1, plane[1] + 1))
        labs = np.rot90(labs, k=k, axes=plane)
    mods = mods.copy()  # detach from the dataset before in-place intensity ops
    labs = np.ascontiguousarray(labs)
    for m in range(mods.shape[0]):
        if rng.random() < 0.1:
            mods[m] += rng.uniform(-0.1, 0.1)
        if rng.random() < 0.1:
            mods[m] *= rng.uniform(0.9, 1.1)
    return mods, labs


@dataclass
class TrainResult:
    losses: list           # per-step dicts: step, ce, dice, commit, total
    final_step: int


def train(model: Model, cases: list, steps: int, lr: float = 1e-4,
          weight_decay: float = 1e-4, seed: int = 0, augment: bool = True,
          optimizer: AdamW | None = None, start_step: int = 0,
          log=None) -> tuple[TrainResult, AdamW]:
    """Run optimizer steps start_step .. start_step+steps-1.

    cases are CaseRecords; each optimizer step trains on one case chosen
    by the step stream. The backward pass hands each parameter's gradient
    to `opt.update` as soon as it is final, so a step holds the
    parameters, the two moments, the activations and one gradient at a
    time, and no gradient outlives it: `.grad` stays None. The result is
    bit-identical to a full backward followed by `opt.step()`. Raises
    NumericalError (with the offending step) if the loss goes non-finite.
    Returns the per-step loss log and the optimizer, whose state a caller
    can serialize next to the model for exact resume.
    """
    if not cases:
        raise ValueError("empty dataset")
    opt = optimizer or AdamW(model.parameters(), lr=lr,
                             weight_decay=weight_decay)
    losses = []
    for step in range(start_step, start_step + steps):
        rng = make_rng(seed, _STEP_STREAM, step)
        case: CaseRecord = cases[int(rng.integers(0, len(cases)))]
        # normalize first so intensity augmentation is not undone by it
        x, labs = normalize_modalities(case.modalities), case.labels
        if augment:
            x, labs = augment_case(x, labs, rng)
        result = model.forward(Tensor(x))
        report = ce_dice_loss(result.logits, labs, result.commit_loss)
        row = {"step": step, **report.floats()}
        if not np.isfinite(row["total"]):
            raise NumericalError(f"non-finite loss at step {step}: {row}")
        losses.append(row)
        if log is not None:
            log(row)

        opt.begin_step()
        report.total.backward(sink=opt.update)
        model.ema_step(result)
    return TrainResult(losses=losses, final_step=start_step + steps), opt


def training_state(model: Model, opt: AdamW, step: int) -> dict:
    entries = model.state_dict()
    entries.update(opt.state_entries(list(model.named_parameters())))
    entries["train.step"] = np.array([float(step)], dtype=np.float32)
    return entries


def load_training_state(model: Model, entries: dict,
                        lr: float, weight_decay: float) -> tuple[AdamW, int]:
    model.load_state_dict(entries)
    names = list(model.named_parameters())
    opt = AdamW(model.parameters(), lr=lr, weight_decay=weight_decay)
    missing = [k for k in [*opt.state_entries(names), "train.step"]
               if k not in entries]
    if missing:  # a model-only checkpoint, or moments keyed by position
        raise KeyError(f"checkpoint is missing {len(missing)} "
                       f"training-state entries, first '{missing[0]}'")
    opt.load_state_entries(entries, names)
    return opt, int(round(float(entries["train.step"][0])))
