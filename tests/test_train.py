"""Optimizer, augmentation, training loop and checkpoint file format.

The optimizer update is checked against the hand-written decoupled
weight-decay formula. Resume-from-checkpoint is checked for bit-identity
with an uninterrupted run, the property the per-step rng streams were
designed to give.
"""

import hashlib
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mortonseg.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from mortonseg.network import Model, ce_dice_loss, desk_config
from mortonseg.phantom import generate_phantom, normalize_modalities
from mortonseg.rng import make_rng
from mortonseg.tensor import (NumericalError, Tensor, add, default_dtype,
                              op_hook)
from mortonseg.train import (
    _BLOCK,
    _STEP_STREAM,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamW,
    augment_case,
    load_training_state,
    train,
    training_state,
)


def tiny_model(seed=0, **overrides):
    cfg = desk_config(channels=(2, 3, 4, 5, 6, 8), state_size=4, vq_k=8,
                      **overrides)
    return Model(cfg, seed=seed)


def tiny_cases(n=2):
    return [generate_phantom(40 + i) for i in range(n)]


# ---------------------------------------------------------------- AdamW

def adamw_formula_step(theta, m, v, g, t, lr, wd, b1, b2, eps):
    """One step of the per-tensor expressions, in place on theta, m, v."""
    if wd:
        theta -= lr * wd * theta
    m[...] = b1 * m + (1 - b1) * g
    v[...] = b2 * v + (1 - b2) * g * g
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    theta -= lr * mhat / (np.sqrt(vhat) + eps)


def adamw_oracle(theta, grads, lr, wd, b1, b2, eps, steps):
    """Reference update sequence for a single parameter: the per-tensor
    expressions that the blocked `AdamW.step` must match bit for bit."""
    theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        adamw_formula_step(theta, m, v, g, t, lr, wd, b1, b2, eps)
    return theta


def test_adamw_matches_reference_formula():
    rng = np.random.default_rng(0)
    init = rng.standard_normal((3, 4))
    grads = [rng.standard_normal((3, 4)) for _ in range(5)]
    p = Tensor(init.copy(), dtype=np.float64, requires_grad=True)
    opt = AdamW([p], lr=0.01, weight_decay=0.1, beta1=0.8, beta2=0.9)
    for g in grads:
        p.grad = g.copy()
        opt.step()
    want = adamw_oracle(init, grads, 0.01, 0.1, 0.8, 0.9, 1e-8, 5)
    np.testing.assert_allclose(p.data, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("wd", [0.0, 0.1])
def test_adamw_blocks_bit_identical_to_per_tensor_formula(dtype, wd):
    # sizes on both sides of each block edge, plus a conv-weight shape
    shapes = [(1,), (_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,), (2 * _BLOCK + 3,),
              (8, 4, 3, 3, 3)]
    rng = np.random.default_rng(3)
    inits = [rng.standard_normal(s).astype(dtype) for s in shapes]
    grads = [[rng.standard_normal(s).astype(dtype) for s in shapes]
             for _ in range(3)]
    params = [Tensor(x.copy(), dtype=dtype, requires_grad=True) for x in inits]
    opt = AdamW(params, lr=0.01, weight_decay=wd)
    moments = opt.m + opt.v
    for gs in grads:
        for p, g in zip(params, gs):
            p.grad = g
        opt.step()
    assert all(a is b for a, b in zip(opt.m + opt.v, moments))
    for k, p in enumerate(params):
        want = adamw_oracle(inits[k], [gs[k] for gs in grads], 0.01, wd,
                            ADAM_BETA1, ADAM_BETA2, ADAM_EPS, 3)
        assert p.data.dtype == dtype
        np.testing.assert_array_equal(p.data, want, err_msg=str(shapes[k]))


def test_adamw_step_allocates_only_block_scratch():
    p = Tensor(np.ones(8_000_003, dtype=np.float32), dtype=np.float32,
               requires_grad=True)  # 32 MB
    opt = AdamW([p], lr=0.01, weight_decay=0.1)
    p.grad = np.full(p.shape, 0.5, dtype=np.float32)
    tracemalloc.start()
    try:
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"step peaked at {peak / 2 ** 20:.1f} MB"


def test_adamw_first_step_is_signed_lr():
    # bias correction makes |update| = lr exactly on step one (wd = 0)
    p = Tensor(np.zeros(4), dtype=np.float64, requires_grad=True)
    opt = AdamW([p], lr=0.05, weight_decay=0.0)
    p.grad = np.array([3.0, -0.2, 1e-4, -7.0])
    opt.step()
    np.testing.assert_allclose(p.data, [-0.05, 0.05, -0.05, 0.05], rtol=1e-3)


def test_adamw_skips_missing_grads_and_zero_grad():
    p = Tensor(np.ones(3), dtype=np.float64, requires_grad=True)
    q = Tensor(np.ones(3), dtype=np.float64, requires_grad=True)
    opt = AdamW([p, q], lr=0.1, weight_decay=0.0)
    p.grad = np.ones(3)
    opt.step()
    np.testing.assert_array_equal(q.data, 1.0)
    assert not np.array_equal(p.data, np.ones(3))
    opt.zero_grad()
    assert p.grad is None and q.grad is None


def test_adamw_state_roundtrip_resumes_identically():
    rng = np.random.default_rng(1)
    init = rng.standard_normal(6)
    grads = [rng.standard_normal(6) for _ in range(8)]

    p1 = Tensor(init, dtype=np.float32, requires_grad=True)
    opt1 = AdamW([p1], lr=0.02, weight_decay=0.05)
    for g in grads:
        p1.grad = g.astype(np.float32)
        opt1.step()

    p2 = Tensor(init, dtype=np.float32, requires_grad=True)
    opt2 = AdamW([p2], lr=0.02, weight_decay=0.05)
    for g in grads[:4]:
        p2.grad = g.astype(np.float32)
        opt2.step()
    saved = opt2.state_entries(["p"])
    assert sorted(saved) == ["opt.m.p", "opt.t", "opt.v.p"]
    p3 = Tensor(p2.data.copy(), dtype=np.float32, requires_grad=True)
    opt3 = AdamW([p3], lr=0.02, weight_decay=0.05)
    opt3.load_state_entries(saved, ["p"])
    assert opt3.t == 4
    for g in grads[4:]:
        p3.grad = g.astype(np.float32)
        opt3.step()
    np.testing.assert_array_equal(p3.data, p1.data)


def test_adamw_loaded_moments_are_copies():
    p2 = Tensor(np.ones(6), dtype=np.float32, requires_grad=True)
    opt2 = AdamW([p2], lr=0.02)
    p2.grad = np.full(6, 0.5, dtype=np.float32)
    opt2.step()
    m2, v2 = opt2.m[0].copy(), opt2.v[0].copy()
    p3 = Tensor(p2.data.copy(), dtype=np.float32, requires_grad=True)
    opt3 = AdamW([p3], lr=0.02)
    opt3.load_state_entries(opt2.state_entries(["p"]), ["p"])
    p3.grad = np.full(6, -2.0, dtype=np.float32)
    opt3.step()
    np.testing.assert_array_equal(opt2.m[0], m2)
    np.testing.assert_array_equal(opt2.v[0], v2)


def test_loaded_model_owns_its_arrays():
    a, b = tiny_model(seed=0), tiny_model(seed=1)
    b.load_state_dict(a.state_dict())
    before = {k: v.copy() for k, v in a.state_dict().items()}
    train(b, tiny_cases(1), steps=1, lr=0.01)
    for k, v in a.state_dict().items():
        np.testing.assert_array_equal(v, before[k], err_msg=k)


def test_adamw_load_rejects_shape_mismatch():
    p = Tensor(np.ones(3), dtype=np.float32, requires_grad=True)
    opt = AdamW([p])
    bad = opt.state_entries(["p"])
    bad["opt.t"] = np.array([3.0], dtype=np.float32)
    bad["opt.m.p"] = np.zeros(5, dtype=np.float32)
    with pytest.raises(ValueError, match="'p'"):
        opt.load_state_entries(bad, ["p"])
    assert opt.t == 0  # a failed load changes nothing


# ---------------------------------------------------------------- augment

def test_augment_deterministic_and_consistent():
    case = generate_phantom(20)
    m1, l1 = augment_case(case.modalities, case.labels, make_rng(9, 1, 0))
    m2, l2 = augment_case(case.modalities, case.labels, make_rng(9, 1, 0))
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(l1, l2)
    assert m1.shape == case.modalities.shape
    assert l1.shape == case.labels.shape


def test_augment_moves_labels_with_image():
    # the tumor must sit on the same voxels of the transformed image:
    # label masks track the nonzero (brain) region of every modality
    case = generate_phantom(21)
    for trial in range(8):
        mods, labs = augment_case(case.modalities, case.labels,
                                  make_rng(10, 1, trial))
        assert (labs > 0).sum() == (case.labels > 0).sum()
        brain = mods[0] != 0
        assert (brain[labs > 0]).all()


def test_augment_preserves_histograms_geometric_part():
    # rotations and flips only permute voxels; when the intensity coins
    # miss (probability .1 each), per-modality histograms are unchanged
    case = generate_phantom(22)
    hit = False
    for trial in range(12):
        rng = make_rng(11, 1, trial)
        mods, labs = augment_case(case.modalities, case.labels, rng)
        if mods.shape != case.modalities.shape:
            continue
        same = all(
            np.array_equal(np.sort(mods[m].ravel()),
                           np.sort(case.modalities[m].ravel()))
            for m in range(4))
        if same:
            hit = True
            assert np.array_equal(np.sort(labs.ravel()),
                                  np.sort(case.labels.ravel()))
    assert hit


# ---------------------------------------------------------------- train

def test_train_is_deterministic():
    cases = tiny_cases()
    r1, _ = train(tiny_model(seed=3), cases, steps=4, lr=1e-3, seed=5)
    r2, _ = train(tiny_model(seed=3), cases, steps=4, lr=1e-3, seed=5)
    assert r1.losses == r2.losses
    assert r1.final_step == 4


def test_train_log_rows_structure():
    rows = []
    res, opt = train(tiny_model(), tiny_cases(1), steps=3, lr=1e-3,
                     seed=0, start_step=7, log=rows.append)
    assert rows == res.losses
    assert [r["step"] for r in rows] == [7, 8, 9]
    assert set(rows[0]) == {"step", "ce", "dice", "commit", "total"}
    assert opt.t == 3


def test_train_zero_lr_keeps_parameters():
    model = tiny_model(seed=1)
    before = {k: v.copy() for k, v in model.state_dict().items()
              if not k.startswith("vq")}
    train(model, tiny_cases(1), steps=2, lr=0.0, weight_decay=0.0, seed=0)
    after = model.state_dict()
    for k, v in before.items():
        np.testing.assert_array_equal(after[k], v)


def test_train_validates_inputs():
    model = tiny_model()
    with pytest.raises(ValueError):
        train(model, [], steps=1)


def test_train_aborts_on_nonfinite_loss():
    model = tiny_model(seed=4)
    model.head_b.data[:] = np.nan
    with pytest.raises(NumericalError, match="step 0"):
        train(model, tiny_cases(1), steps=1, lr=1e-3, seed=0)


def test_train_resume_bit_identical(tmp_path):
    cases = tiny_cases(2)

    straight = tiny_model(seed=6)
    res_a, _ = train(straight, cases, steps=8, lr=5e-3, weight_decay=1e-3,
                     seed=11)

    part = tiny_model(seed=6)
    res_b1, opt = train(part, cases, steps=4, lr=5e-3, weight_decay=1e-3,
                        seed=11)
    ckpt = tmp_path / "mid.mseg"
    save_checkpoint(ckpt, training_state(part, opt, step=4))

    resumed = tiny_model(seed=6)  # fresh weights, all overwritten by load
    opt2, step = load_training_state(resumed, load_checkpoint(ckpt),
                                     lr=5e-3, weight_decay=1e-3)
    assert step == 4
    res_b2, _ = train(resumed, cases, steps=4, lr=5e-3, weight_decay=1e-3,
                      seed=11, optimizer=opt2, start_step=step)

    assert res_b1.losses + res_b2.losses == res_a.losses
    sa, sb = straight.state_dict(), resumed.state_dict()
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k], err_msg=k)


def reference_training_state(model, cases, steps, lr, wd, seed):
    """The training loop as it ran before AdamW moved into backward: every
    gradient lands on `.grad`, then the per-tensor formula steps each
    parameter. Returns the training state after `steps` steps."""
    names = list(model.named_parameters())
    params = model.parameters()
    ms = [np.zeros_like(p.data) for p in params]
    vs = [np.zeros_like(p.data) for p in params]
    for step in range(steps):
        rng = make_rng(seed, _STEP_STREAM, step)
        case = cases[int(rng.integers(0, len(cases)))]
        x, labs = augment_case(normalize_modalities(case.modalities),
                               case.labels, rng)
        result = model.forward(Tensor(x))
        report = ce_dice_loss(result.logits, labs, result.commit_loss)
        for p in params:
            p.grad = None
        report.total.backward()
        model.ema_step(result)
        for p, m, v in zip(params, ms, vs):
            adamw_formula_step(p.data, m, v, p.grad, step + 1, lr, wd,
                               ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
    state = model.state_dict()
    for name, m, v in zip(names, ms, vs):
        state[f"opt.m.{name}"], state[f"opt.v.{name}"] = m, v
    state["opt.t"] = np.array([float(steps)], dtype=np.float32)
    state["train.step"] = np.array([float(steps)], dtype=np.float32)
    return state


def assert_same_bits(got: dict, want: dict):
    assert sorted(got) == sorted(want)
    for k in want:
        assert got[k].dtype == want[k].dtype, k
        assert got[k].tobytes() == want[k].tobytes(), k


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_updates_in_backward_as_the_old_loop_did(dtype):
    # AdamW as backward's sink gives the bits of backward-then-step
    cases = tiny_cases(2)
    with default_dtype(dtype):
        want = reference_training_state(Model(desk_config(), seed=2), cases,
                                         3, 5e-3, 1e-3, seed=4)
        model = Model(desk_config(), seed=2)
        _, opt = train(model, cases, steps=3, lr=5e-3, weight_decay=1e-3,
                       seed=4)
    assert_same_bits(training_state(model, opt, 3), want)
    assert all(p.grad is None for p in model.parameters())


def test_train_in_backward_resumes_as_the_old_loop_ran(tmp_path):
    # 2 steps, a training-state file, 2 more: the old loop's 4 steps
    cases = tiny_cases(2)
    want = reference_training_state(Model(desk_config(), seed=2), cases, 4,
                                    5e-3, 1e-3, seed=4)
    first = Model(desk_config(), seed=2)
    _, opt = train(first, cases, steps=2, lr=5e-3, weight_decay=1e-3, seed=4)
    save_checkpoint(tmp_path / "mid.mseg", training_state(first, opt, 2))
    model = Model(desk_config(), seed=9)
    opt, step = load_training_state(model, load_checkpoint(
        tmp_path / "mid.mseg"), lr=5e-3, weight_decay=1e-3)
    _, opt = train(model, cases, steps=2, lr=5e-3, weight_decay=1e-3, seed=4,
                   optimizer=opt, start_step=step)
    assert_same_bits(training_state(model, opt, 4), want)


class WatchedAdamW(AdamW):
    """Asserts, at each update, that no earlier gradient is alive."""

    def __init__(self, params, **kw):
        super().__init__(params, **kw)
        self.earlier, self.updated = [], []

    def update(self, p, g):
        alive = [name for name, ref in self.earlier if ref() is not None]
        assert not alive, f"gradients still alive: {alive[:3]}"
        self.earlier.append((p.shape, weakref.ref(g)))
        self.updated.append(p)
        super().update(p, g)


def test_train_holds_one_parameter_gradient_at_a_time():
    model = tiny_model(seed=3)
    opt = WatchedAdamW(model.parameters(), lr=1e-3)
    train(model, tiny_cases(1), steps=2, lr=1e-3, seed=0, optimizer=opt)
    params = model.parameters()
    # each parameter stepped once per step, and only parameters did
    assert len(opt.updated) == 2 * len(params)
    assert {id(p) for p in opt.updated} == {id(p) for p in params}
    assert all(p.grad is None for p in params)


def buffer(a):
    """The array that owns the memory a view (of a view ...) reads."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def own_arrays(fn, kept) -> list:
    """Float arrays a closure (or one it wraps) holds whose buffers are not
    in kept: the copies it made for its backward."""
    out, todo = {}, [fn]
    while todo:
        for cell in todo.pop().__closure__ or ():
            try:
                v = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if isinstance(v, np.ndarray):
                v = buffer(v)
                if v.dtype.kind == "f" and id(v) not in kept:
                    out[id(v)] = v
            elif callable(v) and getattr(v, "__closure__", None):
                todo.append(v)
    return list(out.values())


class ClosureWatch(AdamW):
    """Op hook and optimizer at once: weakrefs the arrays each recorded
    closure holds of its own, notes which closures have run, and at the
    last parameter update lists those of run closures still alive."""

    def __init__(self, model, **kw):
        super().__init__(model.parameters(), **kw)
        self.kept = {id(buffer(p.data)) for p in model.parameters()}
        self.ran, self.alive_at_last = [], None

    def __call__(self, op, out, parents, backward_fn):
        if not out.requires_grad:
            return backward_fn
        tape = self.kept | {id(buffer(t.data)) for t in (out, *parents)}
        refs = [weakref.ref(a) for a in own_arrays(backward_fn, tape)]

        def run(g):
            grads = backward_fn(g)
            self.ran.append((op, refs))
            return grads

        return run

    def begin_step(self):
        super().begin_step()
        self.n_updated, self.ran = 0, []

    def update(self, p, g):
        self.n_updated += 1
        if self.n_updated == len(self.params):
            self.alive_at_last = sorted(
                {op for op, refs in self.ran
                 if any(r() is not None for r in refs)})
        super().update(p, g)


def test_backward_frees_what_run_closures_held_as_it_goes():
    # the pass drops each op's closure once it has run, so the copies it
    # kept for backward are gone before the last parameter is stepped
    model = Model(desk_config(), seed=3)
    opt = ClosureWatch(model, lr=1e-3)
    with op_hook(opt):
        train(model, tiny_cases(1), steps=1, lr=1e-3, seed=0,
              optimizer=opt)
    assert opt.n_updated == len(model.parameters())
    assert len(opt.ran) > 50 and sum(bool(refs) for _, refs in opt.ran) > 10
    assert opt.alive_at_last == []


def test_update_leaves_a_foreign_leaf_its_gradient():
    p = Tensor(np.ones(3), dtype=np.float64, requires_grad=True)
    q = Tensor(np.ones(3), dtype=np.float64, requires_grad=True)
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    opt.begin_step()
    add(p, q).backward(np.array([1.0, -2.0, 3.0]), sink=opt.update)
    np.testing.assert_array_equal(q.grad, [1.0, -2.0, 3.0])
    assert p.grad is None
    np.testing.assert_allclose(p.data, [0.9, 1.1, 0.9])


# ---------------------------------------------------------------- files

def test_checkpoint_roundtrip_and_stable_bytes(tmp_path):
    rng = np.random.default_rng(7)
    entries = {"b": rng.standard_normal((2, 3)).astype(np.float32),
               "a": rng.standard_normal(4).astype(np.float32),
               "scalar": np.array([2.5], dtype=np.float32)}
    p1, p2 = tmp_path / "x1.mseg", tmp_path / "x2.mseg"
    save_checkpoint(p1, entries)
    save_checkpoint(p2, dict(reversed(entries.items())))
    assert p1.read_bytes() == p2.read_bytes()  # sorted names, canon bytes
    back = load_checkpoint(p1)
    assert sorted(back) == ["a", "b", "scalar"]
    for k in entries:
        np.testing.assert_array_equal(back[k], entries[k])


def test_checkpoint_bytes_pinned(tmp_path):
    p = tmp_path / "pin.mseg"
    save_checkpoint(p, {"w": np.arange(6, dtype=np.float64).reshape(2, 3) / 7,
                        "opt.t": np.array([3.0]),
                        "empty": np.zeros((0, 4), np.float32),
                        "\u00fc": np.float32(-0.5)})
    raw = p.read_bytes()
    assert len(raw) == 113
    assert hashlib.sha256(raw).hexdigest() == (
        "add7adb1c43c30a77781d3a74bcfad21c69f861c284268dff97a5dff17588015")


def test_checkpoint_save_streams_entries(tmp_path):
    big = np.zeros(8 * 2 ** 20, dtype=np.float32)  # 32 MB
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "big.mseg", {"x": big})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"save peaked at {peak / 2 ** 20:.1f} MB"


def test_checkpoint_rejects_corruption(tmp_path):
    p = tmp_path / "x.mseg"
    save_checkpoint(p, {"w": np.ones((2, 2), dtype=np.float32)})
    raw = p.read_bytes()

    bad = tmp_path / "bad.mseg"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)

    bad.write_bytes(raw[:-4])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(bad)

    bad.write_bytes(raw + b"\x00\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(bad)

    wrong_version = raw[:4] + (99).to_bytes(4, "little") + raw[8:]
    bad.write_bytes(wrong_version)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)

    # no element, so no buffer bytes, but a shape numpy refuses to build
    bad.write_bytes(b"MSEG" + struct.pack("<III", 1, 1, 1) + b"w"
                    + struct.pack("<4I", 3, 0, 2 ** 32 - 1, 2 ** 32 - 1))
    with pytest.raises(CheckpointError, match="extents"):
        load_checkpoint(bad)


# a high bit set in the first name byte ("b" at offset 16) is not utf-8
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(mutation=("flip", 16 * 8 + 7))
@given(mutation=st.tuples(st.sampled_from(["cut", "flip"]),
                          st.integers(0, 10_000)))
def test_checkpoint_corruption_raises_only_checkpoint_error(tmp_path,
                                                            mutation):
    p = tmp_path / "x.mseg"
    save_checkpoint(p, {"b": np.ones((1, 2), dtype=np.float32),
                        "encoder.stage1.weight": np.arange(3.0)})
    raw = bytearray(p.read_bytes())
    kind, i = mutation
    if kind == "cut":
        raw = raw[:i % len(raw)]
    else:
        i %= 8 * len(raw)
        raw[i // 8] ^= 1 << (i % 8)
    p.write_bytes(bytes(raw))
    try:
        entries = load_checkpoint(p)
    except CheckpointError:
        return
    assert all(isinstance(v, np.ndarray) for v in entries.values())
