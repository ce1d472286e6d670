"""Span tracer that times mortonseg's public functions from the outside.

Each traced name is rebound in the module (or class) that looks it up at
call time, so the package itself is untouched: ``mortonseg.network.conv3d``
is the name ConvBlock calls, ``mortonseg.ssm.linear_recurrence`` the one
selective_scan calls, and so on. ``uninstall`` restores every original.

A span is ``[name, start, end, parent]``; spans are kept in memory and
written out once, at the end of a run. A primitive's backward pass is
timed by wrapping the ``_backward_fn`` of the Tensor it returns; the
wrapper runs inside the ``tensor.backward`` span, so that span's self
time is the backward work not attributed to a primitive. Composites
(instance norm, the scan block, the loss) only expose their last op's
closure, so their backward cannot be separated from outside and stays
in that remainder.

Counters (calls, closure bytes, FLOPs) are only taken inside ``unit``
spans, the timed units of work of a workload.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import mortonseg.checkpoint
import mortonseg.metrics
import mortonseg.morton
import mortonseg.network
import mortonseg.phantom
import mortonseg.ssm
import mortonseg.tensor
from mortonseg.flops import SCAN_CORE_FLOPS, conv_layer_flops

train_mod = sys.modules["mortonseg.train"]  # the package attribute is the function

UNIT = "unit"


def _conv3d_flops(args, out) -> int:
    w = args[1]
    cout, cin, k = w.shape[0], w.shape[1], w.shape[2]
    return conv_layer_flops(k, cin, cout, int(np.prod(out.shape[1:])))


def _recurrence_flops(args, out) -> int:
    ln, e, n = args[0].shape
    return SCAN_CORE_FLOPS * ln * e * n


# (owner, attribute, span name). Primitives also get their backward timed.
SPANS = [
    (mortonseg.network, "bidir_scan_block", "ssm.block"),
    (mortonseg.ssm, "bidir_scan_block", "ssm.block"),
    (mortonseg.ssm, "selective_scan", "ssm.scan"),
    (mortonseg.ssm, "gather_sequence", "morton.gather"),
    (mortonseg.ssm, "scatter_back", "morton.scatter"),
    (mortonseg.network, "build_permutation", "morton.build_permutation"),
    (mortonseg.morton, "build_permutation", "morton.build_permutation"),
    (mortonseg.network, "quantize", "vq.quantize"),
    (mortonseg.network, "ema_update", "vq.ema_update"),
    (mortonseg.network.Model, "forward", "network.forward"),
    (mortonseg.network, "instance_norm", "network.instance_norm"),
    (train_mod, "ce_dice_loss", "network.loss"),
    (mortonseg.network, "sliding_window_infer", "network.sliding_window"),
    (mortonseg.tensor.Tensor, "backward", "tensor.backward"),
    (train_mod.AdamW, "step", "train.adamw.step"),
    (train_mod, "augment_case", "train.augment"),
    (mortonseg.phantom, "generate_phantom", "phantom.generate"),
    (mortonseg.phantom, "normalize_modalities", "phantom.normalize"),
    (train_mod, "normalize_modalities", "phantom.normalize"),
    (mortonseg.checkpoint, "save_checkpoint", "checkpoint.save"),
    (mortonseg.metrics, "evaluate_case", "metrics.evaluate"),
    (mortonseg.metrics, "hd95", "metrics.hd95"),
]

# (owner, attribute, layer name, FLOP count of one forward call or None)
PRIMITIVES = [
    (mortonseg.network, "conv3d", "conv.conv3d", _conv3d_flops),
    (mortonseg.network, "upsample_nearest3d", "conv.upsample", None),
    (mortonseg.ssm, "dwconv1d_causal", "conv.dwconv1d", None),
    (mortonseg.ssm, "linear_recurrence", "ssm.recurrence", _recurrence_flops),
]


def closure_bytes(fn) -> int:
    """nbytes of the distinct arrays held in a backward closure's cells.

    Views are counted once, at the size of the buffer they keep alive.
    Tensors in the closure (parameters, parents) are not counted: they
    live on whether or not the tape does.
    """
    seen = {}
    for cell in fn.__closure__ or ():
        try:
            v = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if isinstance(v, np.ndarray):
            base = v
            while isinstance(base.base, np.ndarray):
                base = base.base
            seen[id(base)] = max(seen.get(id(base), 0), v.nbytes, base.nbytes)
    return sum(seen.values())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open_names: Counter = Counter()
        self.counters: dict[str, float] = defaultdict(float)
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        self._open_names[name] += 1
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self._open_names[self.spans[idx][0]] -= 1

    def in_unit(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[0]][0] == UNIT

    def count(self, key: str, value: float = 1.0) -> None:
        if self.in_unit():
            self.counters[key] += value

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._open_names[name]:  # re-entrant call: outer span covers it
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name == "metrics.hd95":
                tracer.count("metrics.hd95.sentinels", float(out[1]))
            return out

        return traced

    def _backward_wrapper(self, bwd, name, flops):
        tracer = self

        def traced_backward(g):
            idx = tracer.open(name + ".bwd")
            try:
                return bwd(g)
            finally:
                tracer.close(idx)
                tracer.count(name + ".bwd_flops", 2 * flops)

        return traced_backward

    def _primitive_wrapper(self, fn, name, flop_fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name + ".fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            flops = flop_fn(args, out) if flop_fn else 0
            tracer.count(name + ".fwd_flops", flops)
            if out._backward_fn is not None:
                tracer.count(name + ".tape_bytes", closure_bytes(out._backward_fn))
                out._backward_fn = tracer._backward_wrapper(
                    out._backward_fn, name, flops)
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPANS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span_wrapper(fn, name))
        for owner, attr, name, flop_fn in PRIMITIVES:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._primitive_wrapper(fn, name, flop_fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- analysis ----------------------------------------------------------

    def aggregate(self) -> dict:
        """{root name: {"count", "time", "names": {span name: [calls, time, self]}}}.

        Self time is a span's duration minus the durations of its direct
        children; children always nest inside their parent. A span's root
        is its outermost ancestor (``setup``, ``unit`` or ``save``).
        """
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
                root[i] = root[parent]
        roots: dict = {}
        for i, (name, _, _, parent) in enumerate(self.spans):
            r = roots.setdefault(self.spans[root[i]][0],
                                 {"count": 0, "time": 0.0, "names": {}})
            if parent < 0:
                r["count"] += 1
                r["time"] += dur[i]
                continue
            acc = r["names"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += dur[i] - child[i]
            if (name == "network.forward" and root[i] != i
                    and self.spans[parent][0] == "network.sliding_window"):
                r["names"].setdefault("network.window", [0, 0.0, 0.0])[0] += 1
        return roots

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)


def _per_root(roots, root):
    r = roots.get(root, {"count": 0, "time": 0.0, "names": {}})
    n = max(r["count"], 1)

    def get(name, field):  # field 0 calls, 1 time, 2 self time
        return r["names"].get(name, [0, 0.0, 0.0])[field] / n
    return get


def _gflops(tr, get, units, name) -> float:
    """Computed FLOPs (flops.py; backward counted as 2x forward) per second."""
    t = get(name + ".fwd", 1) + get(name + ".bwd", 1)
    flops = (tr.counters[name + ".fwd_flops"]
             + tr.counters[name + ".bwd_flops"]) / units
    return flops / t / 1e9 if t > 0 else 0.0


def layer_metrics(tr: Tracer, extra: dict) -> dict:
    """Per-layer metrics, {name: (value, unit)}; times are per unit of work.

    ``*_s`` is the inclusive span time (calls nested in it included);
    ``tensor.backward_rest_s`` is the self time of backward, i.e. the
    part no primitive backward accounts for. Set-up metrics are per
    set-up, ``checkpoint.save_s`` per save.
    """
    roots = tr.aggregate()
    unit = _per_root(roots, UNIT)
    setup = _per_root(roots, "setup")
    save = _per_root(roots, "save")
    units = max(roots.get(UNIT, {"count": 0})["count"], 1)

    def counter(key):
        return tr.counters[key] / units

    hd95_calls = unit("metrics.hd95", 0)
    return {
        "conv.conv3d.calls": (unit("conv.conv3d.fwd", 0), "count"),
        "conv.conv3d.fwd_s": (unit("conv.conv3d.fwd", 1), "s"),
        "conv.conv3d.bwd_s": (unit("conv.conv3d.bwd", 1), "s"),
        "conv.conv3d.tape_bytes": (counter("conv.conv3d.tape_bytes"), "B"),
        "conv.conv3d.gflops_per_s": (_gflops(tr, unit, units, "conv.conv3d"),
                                     "GFLOP/s"),
        "conv.upsample.fwd_s": (unit("conv.upsample.fwd", 1), "s"),
        "conv.upsample.bwd_s": (unit("conv.upsample.bwd", 1), "s"),
        "conv.dwconv1d.fwd_s": (unit("conv.dwconv1d.fwd", 1), "s"),
        "conv.dwconv1d.bwd_s": (unit("conv.dwconv1d.bwd", 1), "s"),
        "ssm.block.calls": (unit("ssm.block", 0), "count"),
        "ssm.block.fwd_s": (unit("ssm.block", 1), "s"),
        "ssm.scan.fwd_s": (unit("ssm.scan", 1), "s"),
        "ssm.recurrence.fwd_s": (unit("ssm.recurrence.fwd", 1), "s"),
        "ssm.recurrence.bwd_s": (unit("ssm.recurrence.bwd", 1), "s"),
        "ssm.recurrence.tape_bytes": (counter("ssm.recurrence.tape_bytes"), "B"),
        "ssm.recurrence.gflops_per_s": (
            _gflops(tr, unit, units, "ssm.recurrence"), "GFLOP/s"),
        "morton.gather.fwd_s": (unit("morton.gather", 1), "s"),
        "morton.scatter.fwd_s": (unit("morton.scatter", 1), "s"),
        "morton.build_permutation_s": (setup("morton.build_permutation", 1), "s"),
        "vq.quantize.fwd_s": (unit("vq.quantize", 1), "s"),
        "vq.ema_update_s": (unit("vq.ema_update", 1), "s"),
        "network.forward_s": (unit("network.forward", 1), "s"),
        "network.instance_norm.fwd_s": (unit("network.instance_norm", 1), "s"),
        "network.loss.fwd_s": (unit("network.loss", 1), "s"),
        "network.window.calls": (unit("network.window", 0), "count"),
        "network.sliding_window_s": (unit("network.sliding_window", 1), "s"),
        "tensor.backward_s": (unit("tensor.backward", 1), "s"),
        "tensor.backward_rest_s": (unit("tensor.backward", 2), "s"),
        "train.adamw.step_s": (unit("train.adamw.step", 1), "s"),
        "train.augment_s": (unit("train.augment", 1), "s"),
        "phantom.generate_s": (setup("phantom.generate", 1), "s"),
        "phantom.normalize_s": (unit("phantom.normalize", 1), "s"),
        "checkpoint.save_s": (save("checkpoint.save", 1), "s"),
        "checkpoint.bytes": (float(extra.get("checkpoint.bytes", 0)), "B"),
        "metrics.evaluate_s": (unit("metrics.evaluate", 1), "s"),
        "metrics.hd95_s": (unit("metrics.hd95", 1), "s"),
        "metrics.hd95.calls": (hd95_calls, "count"),
        "metrics.sentinel_frac": (counter("metrics.hd95.sentinels") / hd95_calls
                                  if hd95_calls else 0.0, "ratio"),
    }


def self_time_check(tr: Tracer):
    """Attributed self times per unit must fit inside the traced unit time."""
    from workloads import Check
    r = tr.aggregate().get(UNIT, {"count": 0, "time": 0.0, "names": {}})
    n = max(r["count"], 1)
    attributed = sum(acc[2] for acc in r["names"].values()) / n
    unit_s = r["time"] / n
    return Check("self_times_within_unit", attributed <= unit_s,
                 f"{attributed:.6g} s attributed of {unit_s:.6g} s per unit")
