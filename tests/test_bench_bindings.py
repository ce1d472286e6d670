"""The benchmark's tracer binds names in mortonseg; each must resolve.

perfbench/tracer.py rebinds public functions by module attribute. A
rename in the package, or a change to a bound op's signature, would
otherwise surface only in a traced benchmark run, so this installs and
uninstalls the tracer, checks both ways, and runs a small traced unit.
"""

from pathlib import Path

import numpy as np
import pytest

import mortonseg.ssm
from mortonseg.morton import build_permutation
from mortonseg.network import Model, ce_dice_loss, desk_config
from mortonseg.ssm import init_ssm_params
from mortonseg.tensor import Tensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    return tracer


def test_tracer_bindings_resolve_and_restore(tracer):
    bound = [(owner, attr)
             for owner, attr, *_ in tracer.SPANS + tracer.PRIMITIVES]
    for owner, attr in bound:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr} is gone"
    originals = [getattr(owner, attr) for owner, attr in bound]

    tr = tracer.Tracer()
    tr.install()
    try:
        for (owner, attr), fn in zip(bound, originals):
            assert getattr(owner, attr) is not fn, f"{attr} was not wrapped"
    finally:
        tr.uninstall()
    for (owner, attr), fn in zip(bound, originals):
        assert getattr(owner, attr) is fn, f"{owner.__name__}.{attr} not restored"


def test_traced_unit_counts_flops_and_one_quantize_per_forward(tracer):
    # a tiny model forward and backward and one scan block, inside a unit
    # span as the benchmark runs them; the recurrence's FLOP value is not
    # pinned, only that the tracer could count it
    cfg = desk_config(channels=(2, 3, 4, 5, 6, 8), state_size=4, vq_k=8)
    model = Model(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 16, 16, 16))
    labels = np.arange(16 ** 3).reshape(16, 16, 16) % 4
    p = init_ssm_params(rng, 3, 2)
    feat = Tensor(rng.standard_normal((3, 4, 4, 4)), requires_grad=True)

    tr = tracer.Tracer()
    tr.install()
    try:
        idx = tr.open(tracer.UNIT)
        res = model.forward(x)
        ce_dice_loss(res.logits, labels, res.commit_loss).total.backward()
        out = mortonseg.ssm.bidir_scan_block(feat, p,
                                             build_permutation((4, 4, 4)))
        out.backward(np.ones(out.shape, dtype=out.dtype))
        tr.close(idx)
    finally:
        tr.uninstall()

    assert tr.counters["conv.conv3d.fwd_flops"] > 0
    assert tr.counters["ssm.recurrence.fwd_flops"] > 0
    names = [span[0] for span in tr.spans]
    assert names.count("network.forward") == 1
    assert names.count("vq.quantize") == 1
