"""Train the fixed desk checkpoint that the eval_window workload scores with.

    python3 perfbench/make_checkpoint.py            # write data/eval_desk.mseg
    python3 perfbench/make_checkpoint.py --verify   # retrain, compare sha256

Training is deterministic: the phantoms, the model initialisation and
every step's draws come from fixed seeds, and BLAS runs one thread, as
in run.py. The sha256 of the written file is recorded in
workloads.EVAL_CHECKPOINT_SHA256; --verify retrains into .perfbench_out/
and compares. Other CPUs may round differently inside BLAS and then
produce another (equally usable) file, which is why the file itself is
committed.

The model learns from the same kind of input eval_window scores: 32^3
crops, at the sliding-window positions, of 64^3 phantoms drawn from a
stream the benchmark's eval cases never use. Only crops holding all four
labels are kept: in a crop without necrosis the Dice term pushes that
class to zero, and a model trained on every crop never predicts it.
"""

from __future__ import annotations

import argparse
import sys
import time

import run

CHECKPOINT_SEED = 7
TRAIN_VOLUMES = 8
STEPS = 1500
LR = 0.02
BETA1, BETA2 = 0.85, 0.99
TRAIN_STREAM = 42  # eval cases use stream 41


def window_crops(case, window, starts):
    from mortonseg.phantom import CaseRecord
    import numpy as np
    out = []
    for sx in starts:
        for sy in starts:
            for sz in starts:
                sl = (slice(sx, sx + window), slice(sy, sy + window),
                      slice(sz, sz + window))
                out.append(CaseRecord(
                    case_id=f"{case.case_id}_{sx}_{sy}_{sz}",
                    modalities=np.ascontiguousarray(
                        case.modalities[(slice(None),) + sl]),
                    labels=np.ascontiguousarray(case.labels[sl]),
                    stats=case.stats))
    return out


def train_checkpoint(path) -> str:
    import numpy as np
    import workloads
    from workloads import checkpoint, network, train_mod
    w = workloads.EVAL_WINDOW[0]
    starts = range(0, workloads.EVAL_SHAPE[0] - w + 1, w // 2)
    crops = [c for v in workloads.eval_phantoms(CHECKPOINT_SEED, TRAIN_VOLUMES,
                                                TRAIN_STREAM)
             for c in window_crops(v, w, starts)
             if len(np.unique(c.labels)) == 4]
    model = network.Model(network.desk_config(), seed=CHECKPOINT_SEED)
    opt = train_mod.AdamW(model.parameters(), lr=LR, weight_decay=0.0,
                          beta1=BETA1, beta2=BETA2)
    t0 = time.perf_counter()
    result, _ = train_mod.train(model, crops, steps=STEPS, seed=CHECKPOINT_SEED,
                                augment=False, optimizer=opt)
    print(f"trained {STEPS} steps on {len(crops)} crops in "
          f"{time.perf_counter() - t0:.0f} s; final loss "
          f"{result.losses[-1]['total']:.4f}", file=sys.stderr)
    checkpoint.save_checkpoint(path, model.state_dict())
    return workloads.file_sha256(path)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--verify", action="store_true",
                   help="retrain into .perfbench_out/ and compare sha256")
    args = p.parse_args(argv)
    run.pin_blas()
    run.import_package()
    import workloads
    if args.verify:
        from pathlib import Path
        out = Path(run.OUT_DIR)
        out.mkdir(exist_ok=True)
        sha = train_checkpoint(out / "eval_desk.mseg")
        ok = sha == workloads.EVAL_CHECKPOINT_SHA256
        print(f"sha256 {sha} {'matches' if ok else 'DIFFERS from'} the record")
        return 0 if ok else 1
    workloads.EVAL_CHECKPOINT.parent.mkdir(exist_ok=True)
    sha = train_checkpoint(workloads.EVAL_CHECKPOINT)
    print(f"wrote {workloads.EVAL_CHECKPOINT} sha256 {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
