"""Command-line entry point: one executable for every workflow.

Subcommands: gradcheck, phantoms, folds, train, eval, analyze, bench.
Every command takes --seed / --precision / --out plus its own flags, and
an optional --config pointing at a JSON file whose keys mirror the flag
names (explicit flags win over the file). --out is made only once a
command's inputs pass validation, and it gets the resolved configuration
as run_config.json. No output embeds a timestamp, so a rerun with
identical inputs is byte-identical.

Exit status: 0 success, 1 validation error, 2 numerical failure,
3 IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .analysis import (analyze_dice_bins, analyze_et_quintiles, eval_record,
                       read_eval_csv, write_eval_csv, write_rows_csv)
from .checkpoint import load_checkpoint, save_checkpoint
from .checksuite import run_suite
from .flops import bench_rows
from .folds import build_systematic_folds, load_folds, save_folds
from .gradcheck import Sabotage
from .metrics import CSV_HEADER, evaluate_case, report_rows
from .network import (Model, NetConfig, desk_config, full_config,
                      sliding_window_infer)
from .phantom import (RejectedDraw, check_shape, compute_region_volumes,
                      generate_phantom, load_dataset, normalize_modalities,
                      read_meta, save_case)
from .rng import make_rng
from .tensor import NumericalError
from .train import load_training_state, train, training_state


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise _UsageError(message)


# -- small parsers -------------------------------------------------------------


def _parse_triple(text: str, what: str) -> tuple:
    parts = [p for p in text.replace("x", ",").split(",") if p]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ValueError(f"{what} must be one extent or three, got '{text}'")
    vals = tuple(int(p) for p in parts)
    if any(v <= 0 for v in vals):
        raise ValueError(f"{what} extents must be positive, got '{text}'")
    return vals


def _parse_resolutions(text: str) -> list:
    # comma separates resolutions; 'x' separates extents within one
    out = [_parse_triple(t, "--resolutions") for t in text.split(",") if t]
    if not out:
        raise ValueError("no resolutions given")
    return out


def _parse_range(text: str, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{what} must be 'lo,hi', got '{text}'")
    lo, hi = float(parts[0]), float(parts[1])
    if not (0 < lo <= hi < np.inf):
        raise ValueError(f"{what} needs finite 0 < lo <= hi, got '{text}'")
    return lo, hi


def _out_dir(args) -> Path:
    d = Path(args.out)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _echo_config(out_dir: Path, args) -> None:
    d = {k: (str(v) if isinstance(v, Path) else v)
         for k, v in vars(args).items()}
    (out_dir / "run_config.json").write_text(
        json.dumps(d, sort_keys=True, indent=2) + "\n")


def _net_config(preset: str | None, checkpoint: str | None = None) -> NetConfig:
    """Resolve a network configuration for train/eval.

    With no explicit preset, eval and train --resume pick up the
    net_config.json written next to the checkpoint, so a checkpoint
    evaluates and resumes with the topology it was trained with.
    """
    if preset is None and checkpoint is not None:
        sidecar = Path(checkpoint).parent / "net_config.json"
        if sidecar.exists():
            try:
                return NetConfig.from_dict(json.loads(sidecar.read_text()))
            except (TypeError, ValueError) as e:
                raise ValueError(f"{sidecar}: {e}") from None
        preset = "desk"
    if preset == "full":
        return full_config()
    return desk_config()


# -- commands ------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    if args.sabotage:
        sabotage = Sabotage(args.sabotage)
        with T.op_hook(sabotage):
            results = run_suite(op_filter=args.op, seed=args.seed)
        if not sabotage.wrapped:
            raise ValueError(f"--sabotage {args.sabotage!r}: the checks "
                             "recorded no op of that name")
    else:
        results = run_suite(op_filter=args.op, seed=args.seed)
    for r in results:
        print(r)
    n_bad = sum(not r.passed for r in results)
    print(f"{len(results) - n_bad}/{len(results)} gradient checks passed")
    if args.out:
        out = _out_dir(args)
        write_rows_csv(out / "gradcheck.csv",
                       ["name", "max_rel_error", "max_abs_error",
                        "n_checked", "passed"],
                       ([r.name, f"{r.max_rel_error:.9e}",
                         f"{r.max_abs_error:.9e}", r.n_checked, int(r.passed)]
                        for r in results))
        _echo_config(out, args)
    if n_bad:
        raise NumericalError(f"{n_bad} gradient checks failed")
    return 0


def cmd_phantoms(args) -> int:
    shape = check_shape(_parse_triple(args.shape, "--shape"))
    lo, hi = _parse_range(args.et_range, "--et-range")
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    out = _out_dir(args)

    index = []
    for i in range(args.n):
        target = int(round(float(np.exp(
            make_rng(args.seed, 12, i).uniform(np.log(lo), np.log(hi))))))
        seeds = make_rng(args.seed, 11, i)
        case = None
        for _attempt in range(20):
            case_seed = int(seeds.integers(0, 2 ** 31 - 1))
            try:
                case = generate_phantom(case_seed, shape=shape,
                                        et_volume_target=target,
                                        case_id=f"case_{i:03d}")
                break
            except RejectedDraw:  # another seed may fit
                continue
        if case is None:
            raise ValueError(f"could not realize a case with |ET|~{target} "
                             f"on shape {shape} after 20 attempts")
        save_case(out, case)
        index.append({"case_id": case.case_id, "seed": case_seed,
                      "et_target": target, **case.stats.to_dict()})
        print(f"{case.case_id}: |ET|={case.stats.et_volume} "
              f"(target {target}), fiv={case.stats.fiv:.4f}", file=sys.stderr)

    (out / "index.json").write_text(json.dumps(
        {"shape": list(shape), "seed": args.seed, "cases": index},
        sort_keys=True, indent=2) + "\n")
    _echo_config(out, args)
    fivs = [c["fiv"] for c in index]
    print(f"wrote {args.n} cases to {out} "
          f"(fiv {min(fivs):.4f}..{max(fivs):.4f})")
    return 0


def _scan_case_fivs(data_dir) -> list:
    """(case_id, fiv) pairs from the meta files; volumes stay on disk."""
    root = Path(data_dir)
    metas = [read_meta(p.parent) for p in sorted(root.glob("*/meta.json"))]
    if not metas:
        raise FileNotFoundError(f"no cases under {root}")
    return [(case_id, stats.fiv) for case_id, stats in metas]


def cmd_folds(args) -> int:
    pairs = _scan_case_fivs(args.data)
    fa = build_systematic_folds(pairs, seed=args.seed)
    out = _out_dir(args)
    save_folds(out / "folds.json", fa)
    _echo_config(out, args)

    fiv_by_case = dict(pairs)
    for fold in range(1, 6):
        cases = fa.fold_cases(fold)
        mean_fiv = float(np.mean([fiv_by_case[c] for c in cases]))
        print(f"fold {fold}: {len(cases)} cases, mean fiv {mean_fiv:.4f}")
    return 0


def cmd_train(args) -> int:
    cases = load_dataset(args.data)
    cfg = _net_config(args.preset, args.resume)
    if not (0 < args.lr < np.inf and 0 <= args.weight_decay < np.inf
            and args.steps >= 0):
        raise ValueError("--lr must be finite and positive, --weight-decay "
                         "finite and >= 0, and --steps >= 0")
    model = Model(cfg, seed=args.seed)

    opt, start = None, 0
    if args.resume:
        entries = load_checkpoint(args.resume)
        try:
            opt, start = load_training_state(model, entries, args.lr,
                                             args.weight_decay)
        except (KeyError, ValueError) as e:
            raise ValueError(f"{args.resume}: {e.args[0]}") from None
    out = _out_dir(args)

    every = max(1, args.steps // 20) if args.steps else 1

    def progress(row):
        if (row["step"] - start) % every == 0:
            print(f"step {row['step']:5d}  total {row['total']:.4f}  "
                  f"ce {row['ce']:.4f}  dice {row['dice']:.4f}",
                  file=sys.stderr)

    result, opt = train(model, cases, steps=args.steps, lr=args.lr,
                        weight_decay=args.weight_decay, seed=args.seed,
                        augment=not args.no_augment, optimizer=opt,
                        start_step=start, log=progress)

    save_checkpoint(out / "checkpoint.mseg",
                    training_state(model, opt, result.final_step))
    (out / "net_config.json").write_text(
        json.dumps(cfg.to_dict(), sort_keys=True, indent=2) + "\n")
    loss_header = ["step", "ce", "dice", "commit", "total"]
    write_rows_csv(out / "loss_log.csv", loss_header,
                   ([row[k] for k in loss_header] for row in result.losses))
    _echo_config(out, args)

    tail = (f"final loss {result.losses[-1]['total']:.4f}; "
            if result.losses else "")
    print(f"trained {args.steps} steps (ending at {result.final_step}); "
          f"{tail}checkpoint in {out}")
    return 0


def cmd_eval(args) -> int:
    if args.fold is not None and not args.folds:
        raise ValueError("--fold needs --folds, the assignment it indexes")
    cases = load_dataset(args.data)
    if args.folds:
        fa = load_folds(args.folds)
        if args.fold is None:
            raise ValueError("--fold is required when --folds is given")
        keep = set(fa.fold_cases(args.fold))
        missing = keep - {c.case_id for c in cases}
        if missing:
            raise ValueError(f"fold {args.fold} cases missing from --data: "
                             f"{sorted(missing)}")
        cases = [c for c in cases if c.case_id in keep]
        if not cases:
            raise ValueError(f"fold {args.fold} selects no cases")

    cfg = _net_config(args.preset, args.checkpoint)
    model = Model(cfg, seed=args.seed)
    try:
        model.load_state_dict(load_checkpoint(args.checkpoint))
    except (KeyError, ValueError) as e:
        raise ValueError(f"{args.checkpoint}: {e.args[0]}") from None

    fixed_window = _parse_triple(args.window, "--window") if args.window \
        else None
    out = _out_dir(args)
    reports, records = [], []
    for case in cases:
        x = normalize_modalities(case.modalities)
        window = fixed_window or x.shape[1:]
        logits = sliding_window_infer(model, x, window)
        pred = np.argmax(logits, axis=0).astype(np.uint8)
        rep = evaluate_case(pred, case.labels, case_id=case.case_id)
        ed, ncr, et = compute_region_volumes(case.labels)
        reports.append(rep)
        records.append(eval_record(rep, {"ED": ed, "NCR": ncr, "ET": et}))
        print(f"{case.case_id}: mean dice {rep.mean_dice():.4f}",
              file=sys.stderr)

    write_rows_csv(out / "metrics.csv", CSV_HEADER, report_rows(reports))
    write_eval_csv(out / "eval_records.csv", records)
    _echo_config(out, args)

    for region in ("WT", "TC", "ET"):
        d = float(np.mean([r.scores[region].dice for r in reports]))
        h = float(np.mean([r.scores[region].hd95 for r in reports]))
        print(f"{region}: mean dice {d:.4f}, mean hd95 {h:.4f}")
    print(f"scored {len(reports)} cases into {out}")
    return 0


def cmd_analyze(args) -> int:
    records = read_eval_csv(args.eval)
    bins = analyze_dice_bins(records)
    quintiles = analyze_et_quintiles(records)
    out = _out_dir(args)
    for name, rows in (("dice_bins.csv", bins),
                       ("et_quintiles.csv", quintiles)):
        write_rows_csv(out / name, list(rows[0]),
                       [list(row.values()) for row in rows])
    _echo_config(out, args)

    for row in bins:
        print(f"bin {row['bin']}: n={row['count']} "
              f"dice [{row['dice_lo']:.4f}, {row['dice_hi']:.4f}] "
              f"mean |ET| {row['mean_et_volume']:.1f}")
    for row in quintiles:
        print(f"quintile {row['quintile']}: n={row['count']} "
              f"mean |ET| {row['mean_et_volume']:.1f} "
              f"mean dice {row['mean_dice']:.4f}")
    return 0


def _bench_svg(rows) -> str:
    """Self-contained log-scale line plot of the two cost curves."""
    width, height, pad = 640, 400, 60
    xs = list(range(len(rows)))
    all_vals = [r.dual for r in rows] + [r.reference for r in rows]
    lo = np.floor(np.log10(min(all_vals)))
    hi = np.ceil(np.log10(max(all_vals)))
    span = max(hi - lo, 1.0)

    def px(i):
        if len(rows) == 1:
            return width / 2
        return pad + i * (width - 2 * pad) / (len(rows) - 1)

    def py(v):
        return height - pad - (np.log10(v) - lo) / span * (height - 2 * pad)

    def poly(vals):
        return " ".join(f"{px(i):.2f},{py(v):.2f}" for i, v in zip(xs, vals))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
    ]
    for dec in range(int(lo), int(hi) + 1):
        y = py(10.0 ** dec)
        parts.append(f'<line x1="{pad - 4}" y1="{y:.2f}" x2="{pad}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{pad - 8}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end">1e{dec}</text>')
    for i, r in enumerate(rows):
        label = "x".join(str(d) for d in r.resolution)
        parts.append(f'<text x="{px(i):.2f}" y="{height - pad + 16}" '
                     f'font-size="11" text-anchor="middle">{label}</text>')
    parts.append(f'<polyline points="{poly([r.reference for r in rows])}" '
                 f'fill="none" stroke="#c0392b" stroke-width="2"/>')
    parts.append(f'<polyline points="{poly([r.dual for r in rows])}" '
                 f'fill="none" stroke="#2980b9" stroke-width="2"/>')
    for color, dy, name in (("#c0392b", 20, "per-stage tri-orientation"),
                            ("#2980b9", 40, "dual-resolution")):
        parts.append(f'<rect x="{pad + 10}" y="{pad + dy - 9}" width="12" '
                     f'height="3" fill="{color}"/>')
        parts.append(f'<text x="{pad + 28}" y="{pad + dy - 4}" '
                     f'font-size="12">{name}</text>')
    parts.append(f'<text x="{width / 2}" y="{height - 14}" font-size="12" '
                 f'text-anchor="middle">input resolution</text>')
    parts.append(f'<text x="16" y="{height / 2}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{height / 2})">scan placement FLOPs, backbone excluded '
                 '(log scale)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_bench(args) -> int:
    resolutions = _parse_resolutions(args.resolutions)
    cfg = _net_config(args.preset or "full")
    rows = bench_rows(cfg, resolutions)
    out = _out_dir(args)

    write_rows_csv(out / "flops.csv",
                   ["resolution", "dual_flops", "reference_flops",
                    "conv_backbone_flops", "ratio"],
                   (["x".join(str(d) for d in r.resolution), r.dual,
                     r.reference, r.backbone, r.ratio] for r in rows))
    (out / "flops.svg").write_text(_bench_svg(rows))
    _echo_config(out, args)

    for r in rows:
        label = "x".join(str(d) for d in r.resolution)
        print(f"{label}: dual {r.dual:.3e}, reference {r.reference:.3e}, "
              f"ratio {r.ratio:.2f} (shared conv {r.backbone:.3e})")
    return 0


# -- parser & dispatch ---------------------------------------------------------


def build_parser() -> tuple:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="root seed for every random stream")
    common.add_argument("--precision", choices=("f32", "f64"), default="f32",
                        help="default floating-point width")
    common.add_argument("--out", default=None,
                        help="output directory for artifacts")
    common.add_argument("--config", default=None,
                        help="JSON file whose keys mirror the flags")

    parser = _Parser(prog="mortonseg",
                     description="Morton-ordered state-space segmentation "
                                 "toolkit")
    subs_action = parser.add_subparsers(dest="command", required=True)
    subs = {}

    def sub(name, help_text):
        p = subs_action.add_parser(name, parents=[common], help=help_text)
        subs[name] = p
        return p

    p = sub("gradcheck", "finite-difference checks of every op")
    p.add_argument("--op", default=None, help="restrict to matching checks")
    p.add_argument("--sabotage", default=None, metavar="OP",
                   help="fault-injection hook: flip OP's backward sign")

    p = sub("phantoms", "synthesize a phantom dataset")
    p.add_argument("--n", type=int, default=50, help="number of cases")
    p.add_argument("--shape", default="32,32,32", help="volume extents")
    p.add_argument("--et-range", default="60,500",
                   help="log-uniform |ET| target range 'lo,hi'")

    p = sub("folds", "systematic fiv-stratified fold assignment")
    p.add_argument("--data", required=True, help="phantom dataset directory")

    p = sub("train", "optimize a model on a dataset")
    p.add_argument("--data", required=True, help="phantom dataset directory")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--preset", choices=("desk", "full"), default=None)
    p.add_argument("--no-augment", action="store_true")
    p.add_argument("--resume", default=None, help="checkpoint to continue")

    p = sub("eval", "score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--folds", default=None, help="fold assignment JSON")
    p.add_argument("--fold", type=int, default=None, help="fold to score")
    p.add_argument("--window", default=None,
                   help="sliding-window extents (default: whole volume)")
    p.add_argument("--preset", choices=("desk", "full"), default=None)

    p = sub("analyze", "bin scored cases by Dice and |ET|")
    p.add_argument("--eval", required=True, help="eval_records.csv path")

    p = sub("bench", "analytic FLOP comparison of scan placements")
    p.add_argument("--resolutions", default="64,96,128,160x160x144")
    p.add_argument("--preset", choices=("desk", "full"), default=None)

    return parser, subs


_COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "phantoms": cmd_phantoms,
    "folds": cmd_folds,
    "train": cmd_train,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "bench": cmd_bench,
}


def _apply_config_file(parser, subs, argv, args):
    """Merge --config JSON as subcommand defaults, then reparse.

    Explicit command-line flags override the file because defaults lose
    to anything actually present in argv.
    """
    try:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError("not a JSON object")
        command = loaded.pop("command", args.command)
        if command != args.command:
            raise ValueError(f"config file is for '{command}', "
                             f"not '{args.command}'")
        actions = {a.dest: a for a in subs[args.command]._actions
                   if a.dest != "help"}
        unknown = set(loaded) - set(actions)
        if unknown:
            raise ValueError(f"unknown config keys for '{args.command}': "
                             f"{sorted(unknown)}")
        loaded = {k: _config_value(actions[k], k, v)
                  for k, v in loaded.items()}
    except ValueError as e:
        raise ValueError(f"{args.config}: {e}") from None
    subs[args.command].set_defaults(**loaded)
    return parser.parse_args(argv)


def _config_value(action, key: str, value):
    """value as its flag would take it: the flag's type, then its choices."""
    if value is None and action.default is None:
        return value
    kind = bool if action.nargs == 0 else action.type or str
    if kind is float and type(value) is int \
            and abs(value) <= sys.float_info.max:
        value = float(value)  # as float() parses the flag
    if type(value) is not kind:
        raise ValueError(f"'{key}' must be {kind.__name__}, "
                         f"not {json.dumps(value)}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"'{key}' must be one of {list(action.choices)}, "
                         f"not {json.dumps(value)}")
    return value


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subs = build_parser()
    prev_dtype = T.get_default_dtype()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _apply_config_file(parser, subs, argv, args)
        T.set_default_dtype(np.float64 if args.precision == "f64"
                            else np.float32)
        if not args.out and args.command != "gradcheck":
            raise ValueError("this command requires --out")
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        return e.code if isinstance(e.code, int) else 0
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3
    finally:
        T.set_default_dtype(prev_dtype)


if __name__ == "__main__":
    sys.exit(main())
