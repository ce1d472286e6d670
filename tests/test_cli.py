"""End-to-end command-line workflows, run in-process via main(argv).

Covers the full artifact chain (phantoms -> folds -> train -> eval ->
analyze), byte-identical reruns, config-file merging, resume, and the
documented exit codes: 0 ok, 1 validation, 2 numerical, 3 io.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mortonseg.analysis import EvalRecord, read_eval_csv, write_eval_csv
from mortonseg.checkpoint import load_checkpoint, save_checkpoint
from mortonseg.cli import main
from mortonseg.folds import load_folds
from mortonseg.network import RETIRED_CONFIG_KEYS, Model, desk_config
from mortonseg.phantom import load_dataset


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset(work):
    d = work / "data"
    rc = main(["phantoms", "--n", "8", "--seed", "3", "--out", str(d)])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def trained(work, dataset):
    d = work / "run"
    rc = main(["train", "--data", str(dataset), "--steps", "2",
               "--lr", "1e-3", "--seed", "5", "--no-augment",
               "--out", str(d)])
    assert rc == 0
    return d


# ---------------------------------------------------------------- phantoms

def test_phantoms_writes_loadable_dataset(dataset):
    cases = load_dataset(dataset)
    assert len(cases) == 8
    index = json.loads((dataset / "index.json").read_text())
    assert len(index["cases"]) == 8
    assert (dataset / "run_config.json").exists()


def test_phantoms_rerun_is_byte_identical(work, dataset):
    again = work / "data2"
    rc = main(["phantoms", "--n", "8", "--seed", "3", "--out", str(again)])
    assert rc == 0
    assert (again / "index.json").read_bytes() == \
        (dataset / "index.json").read_bytes()
    probe = "case_004/t1ce.vol"
    assert (again / probe).read_bytes() == (dataset / probe).read_bytes()


def test_phantoms_validates_flags(work):
    assert main(["phantoms", "--n", "0",
                 "--out", str(work / "x1")]) == 1
    assert main(["phantoms", "--n", "1", "--shape", "9,9",
                 "--out", str(work / "x2")]) == 1
    assert main(["phantoms", "--n", "1", "--et-range", "500,60",
                 "--out", str(work / "x3")]) == 1
    assert main(["phantoms", "--n", "1"]) == 1  # --out required
    for bounds in ("1,inf", "inf,inf"):  # no finite log-uniform draw
        assert main(["phantoms", "--n", "1", "--et-range", bounds,
                     "--out", str(work / "x4")]) == 1


# ---------------------------------------------------------------- folds

def test_folds_command(work, dataset):
    d = work / "folds"
    rc = main(["folds", "--data", str(dataset), "--seed", "2",
               "--out", str(d)])
    assert rc == 0
    fa = load_folds(d / "folds.json")
    assert sorted(fa.assignment) == [f"case_{i:03d}" for i in range(8)]

    again = work / "folds2"
    assert main(["folds", "--data", str(dataset), "--seed", "2",
                 "--out", str(again)]) == 0
    assert (again / "folds.json").read_bytes() == \
        (d / "folds.json").read_bytes()


def test_folds_missing_data_is_io_error(work):
    assert main(["folds", "--data", str(work / "nowhere"),
                 "--out", str(work / "f")]) == 3


# ---------------------------------------------------------------- train

def test_train_artifacts(trained):
    assert (trained / "checkpoint.mseg").exists()
    cfg = json.loads((trained / "net_config.json").read_text())
    assert cfg["channels"] == [4, 8, 16, 32, 64, 128]
    with open(trained / "loss_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["step"] for r in rows] == ["0", "1"]
    assert all(np.isfinite(float(r["total"])) for r in rows)


def test_train_resume_continues_log(work, dataset, trained):
    resumed = work / "resumed"
    rc = main(["train", "--data", str(dataset), "--steps", "2",
               "--lr", "1e-3", "--seed", "5", "--no-augment",
               "--resume", str(trained / "checkpoint.mseg"),
               "--out", str(resumed)])
    assert rc == 0
    with open(resumed / "loss_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["step"] for r in rows] == ["2", "3"]

    straight = work / "straight"
    rc = main(["train", "--data", str(dataset), "--steps", "4",
               "--lr", "1e-3", "--seed", "5", "--no-augment",
               "--out", str(straight)])
    assert rc == 0
    with open(straight / "loss_log.csv", newline="") as fh:
        full = list(csv.DictReader(fh))
    assert full[2:] == rows  # resumed steps reproduce the straight run
    assert (straight / "checkpoint.mseg").read_bytes() == \
        (resumed / "checkpoint.mseg").read_bytes()


def test_train_resume_reads_net_config_sidecar(tmp_path, dataset):
    # a full-preset checkpoint resumes with its own topology, no --preset
    full, resumed = tmp_path / "full", tmp_path / "resumed"
    assert main(["train", "--data", str(dataset), "--preset", "full",
                 "--steps", "0", "--out", str(full)]) == 0
    rc = main(["train", "--data", str(dataset), "--steps", "0",
               "--resume", str(full / "checkpoint.mseg"),
               "--out", str(resumed)])
    assert rc == 0
    assert (resumed / "net_config.json").read_bytes() == \
        (full / "net_config.json").read_bytes()
    for d in (full, resumed):  # 300 MB each
        (d / "checkpoint.mseg").unlink()


def test_train_resume_of_model_only_checkpoint_names_file_and_entry(
        tmp_path, dataset, trained, capsys):
    entries = load_checkpoint(trained / "checkpoint.mseg")
    model_only = tmp_path / "model_only.mseg"
    save_checkpoint(model_only, {k: v for k, v in entries.items()
                                 if not k.startswith(("opt.", "train."))})
    rc = main(["train", "--data", str(dataset), "--steps", "1",
               "--resume", str(model_only), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model_only}: "), err
    assert "'opt.t'" in err
    assert not (tmp_path / "out" / "checkpoint.mseg").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--data", "missing"],
    ["eval", "--data", "missing", "--checkpoint", "missing.mseg"],
    ["analyze", "--eval", "missing.csv"]])
def test_missing_out_is_reported_before_the_inputs(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: this command requires --out\n"


REFUSED_RUNS = [
    (["phantoms", "--n", "0"], "--n must be >= 1"),
    (["folds", "--data", "{tmp}/missing"], "no cases under"),
    (["analyze", "--eval", "{tmp}/missing.csv"], "No such file"),
    (["bench", "--resolutions", "17"], "not divisible by 16"),
    # phantom's own extent rule, checked once, not retried as a bad draw
    (["phantoms", "--shape", "8"],
     "shape must be at least 16 voxels per axis, got (8, 8, 8)")]


# pinned test ids, so each case keeps its name as the list grows
@pytest.mark.parametrize("argv, message", REFUSED_RUNS,
                         ids=[f"argv{i}" for i in range(len(REFUSED_RUNS))])
def test_refused_run_leaves_no_out_directory(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv + ["--out", str(out)]) != 0
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_train_resume_of_positional_moments_names_file_and_entry(
        tmp_path, dataset, trained, capsys):
    # moments keyed by position, as training states were before they were
    # keyed by parameter name, are refused rather than matched by index
    entries = load_checkpoint(trained / "checkpoint.mseg")
    names = list(Model(desk_config()).named_parameters())
    for i, name in enumerate(names):
        for kind in "mv":
            entries[f"opt.{kind}.{i:04d}"] = entries.pop(f"opt.{kind}.{name}")
    positional = tmp_path / "positional.mseg"
    save_checkpoint(positional, entries)
    rc = main(["train", "--data", str(dataset), "--steps", "1",
               "--resume", str(positional), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {positional}: checkpoint is missing {2 * len(names)} "
        "training-state entries, first 'opt.m.enc1a.w'"), err
    assert not (tmp_path / "out").exists()


def test_eval_of_checkpoint_missing_an_entry_names_file_and_entry(
        tmp_path, dataset, trained, capsys):
    entries = load_checkpoint(trained / "checkpoint.mseg")
    del entries["head.b"]
    partial = tmp_path / "partial.mseg"
    save_checkpoint(partial, entries)
    assert main(["eval", "--checkpoint", str(partial), "--data", str(dataset),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {partial}: checkpoint is missing "
                          "'head.b'"), err
    assert not (tmp_path / "out").exists()


def test_train_validates_flags(work, dataset):
    assert main(["train", "--data", str(dataset), "--steps", "1",
                 "--lr", "0", "--out", str(work / "t1")]) == 1
    assert main(["train", "--data", str(dataset), "--steps", "-3",
                 "--out", str(work / "t2")]) == 1
    # lr must be finite and > 0, weight decay finite and >= 0; a bad value
    # is rejected before the first step, so no checkpoint is written
    for flag, value in (("--lr", "nan"), ("--lr", "inf"), ("--lr", "-1"),
                        ("--weight-decay", "nan"),
                        ("--weight-decay", "inf"),
                        ("--weight-decay", "-1")):
        out = work / f"t_{flag[2:]}_{value}"
        assert main(["train", "--data", str(dataset), "--steps", "1",
                     flag, value, "--out", str(out)]) == 1
        assert not (out / "checkpoint.mseg").exists()


# ---------------------------------------------------------------- eval

def test_eval_scores_dataset(work, dataset, trained):
    d = work / "scores"
    rc = main(["eval", "--checkpoint", str(trained / "checkpoint.mseg"),
               "--data", str(dataset), "--seed", "5", "--out", str(d)])
    assert rc == 0
    with open(d / "eval_records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert {r["case_id"] for r in rows} == \
        {f"case_{i:03d}" for i in range(8)}
    with open(d / "metrics.csv", newline="") as fh:
        scores = list(csv.reader(fh))
    assert scores[0] == ["case_id", "region", "dice", "hd95", "sentinel"]
    assert len(scores) == 1 + 8 * 3  # one row per case and region
    assert scores[1][:2] == ["case_000", "WT"]
    # analyze reads this file, so its reader must take it as written
    records = read_eval_csv(d / "eval_records.csv")
    assert [r.case_id for r in records] == [r["case_id"] for r in rows]


def test_eval_fold_filter(work, dataset, trained):
    folds_dir = work / "folds_eval"
    assert main(["folds", "--data", str(dataset), "--seed", "2",
                 "--out", str(folds_dir)]) == 0
    fa = load_folds(folds_dir / "folds.json")
    d = work / "scores_fold1"
    rc = main(["eval", "--checkpoint", str(trained / "checkpoint.mseg"),
               "--data", str(dataset), "--folds",
               str(folds_dir / "folds.json"), "--fold", "1",
               "--out", str(d)])
    assert rc == 0
    with open(d / "eval_records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(r["case_id"] for r in rows) == fa.fold_cases(1)
    # --folds without --fold is a usage problem
    assert main(["eval", "--checkpoint", str(trained / "checkpoint.mseg"),
                 "--data", str(dataset), "--folds",
                 str(folds_dir / "folds.json"),
                 "--out", str(work / "scores_bad")]) == 1


def test_eval_fold_without_folds_is_an_error(work, dataset, trained, capsys):
    # a fold number alone selects nothing, so it must not score every case
    d = work / "scores_fold_only"
    assert main(["eval", "--checkpoint", str(trained / "checkpoint.mseg"),
                 "--data", str(dataset), "--fold", "3",
                 "--out", str(d)]) == 1
    assert "--folds" in capsys.readouterr().err
    assert not (d / "metrics.csv").exists()


def test_eval_rejects_malformed_folds_file(work, dataset, trained, capsys):
    folds = work / "bad_folds.json"
    folds.write_text(json.dumps({"version": "1", "seed": 0,
                                 "bin_edges": [0, 1, 2, 3, 4, 5],
                                 "assignment": 5, "bins": {}}))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(trained / "checkpoint.mseg"),
                 "--data", str(dataset), "--folds", str(folds),
                 "--fold", "1", "--out", str(work / "scores_badfolds")]) == 1
    err = capsys.readouterr().err
    assert str(folds) in err and "'assignment'" in err


def test_eval_rejects_unknown_folds_version(work, dataset, trained, capsys):
    folds_dir = work / "folds_v99"
    assert main(["folds", "--data", str(dataset), "--out", str(folds_dir)]) == 0
    folds = folds_dir / "folds.json"
    folds.write_text(folds.read_text().replace('"version": "1"',
                                               '"version": "99"'))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(trained / "checkpoint.mseg"),
                 "--data", str(dataset), "--folds", str(folds),
                 "--fold", "1", "--out", str(work / "scores_v99")]) == 1
    err = capsys.readouterr().err
    assert str(folds) in err and "'version'" in err and "Traceback" not in err


def test_eval_missing_checkpoint_is_io_error(work, dataset):
    assert main(["eval", "--checkpoint", str(work / "no.mseg"),
                 "--data", str(dataset), "--out", str(work / "s2")]) == 3


def test_eval_corrupt_checkpoint_name_is_io_error(work, dataset, trained):
    raw = bytearray((trained / "checkpoint.mseg").read_bytes())
    raw[16] |= 0x80  # first byte of the first entry name: no longer utf-8
    bad = work / "bad_name.mseg"
    bad.write_bytes(bytes(raw))
    assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset),
                 "--out", str(work / "s3")]) == 3


def test_eval_reads_sidecar_with_retired_keys(work, dataset, trained):
    # a run directory whose net_config.json still carries the retired keys
    old = work / "old_run"
    old.mkdir()
    (old / "checkpoint.mseg").write_bytes(
        (trained / "checkpoint.mseg").read_bytes())
    cfg = json.loads((trained / "net_config.json").read_text())
    cfg.update(RETIRED_CONFIG_KEYS)
    assert len(cfg) == 13
    (old / "net_config.json").write_text(json.dumps(cfg))
    args = ["eval", "--checkpoint", str(old / "checkpoint.mseg"),
            "--data", str(dataset)]
    assert main(args + ["--out", str(work / "s_old")]) == 0
    # any other value asks for a network this package does not build
    for key, fixed in RETIRED_CONFIG_KEYS.items():
        other = not fixed if isinstance(fixed, bool) else 2 * fixed
        (old / "net_config.json").write_text(json.dumps({**cfg, key: other}))
        assert main(args + ["--out", str(work / f"s_{key}")]) == 1


def test_eval_rejects_sidecar_codebook_size_mismatch(work, dataset, trained):
    run = work / "vq32_run"
    run.mkdir()
    (run / "checkpoint.mseg").write_bytes(
        (trained / "checkpoint.mseg").read_bytes())
    cfg = json.loads((trained / "net_config.json").read_text())
    assert cfg["vq_k"] != 32
    (run / "net_config.json").write_text(json.dumps({**cfg, "vq_k": 32}))
    assert main(["eval", "--checkpoint", str(run / "checkpoint.mseg"),
                 "--data", str(dataset), "--out", str(work / "s_vq32")]) == 1


@pytest.mark.parametrize("field, value", [
    ("state_size", 0), ("in_channels", 4.5), ("vq_k", 0),
    ("channels", [4, 8, -1, 32, 64, 128])])
def test_eval_rejects_bad_sidecar_field(work, dataset, trained, capsys,
                                        field, value):
    run = work / f"bad_{field}_run"
    run.mkdir()
    (run / "checkpoint.mseg").write_bytes(
        (trained / "checkpoint.mseg").read_bytes())
    cfg = json.loads((trained / "net_config.json").read_text())
    (run / "net_config.json").write_text(json.dumps({**cfg, field: value}))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.mseg"),
                 "--data", str(dataset),
                 "--out", str(work / f"s_bad_{field}")]) == 1
    assert f"'{field}'" in capsys.readouterr().err


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("name, mangle, field", [
    ("truncated", lambda cfg: json.dumps(cfg, indent=2)[:19], None),
    ("list", lambda cfg: json.dumps(list(cfg.items())), None),
    ("unknown", lambda cfg: json.dumps({**cfg, "bogus": 1}), "'bogus'"),
    ("missing", lambda cfg: json.dumps(_without(cfg, "channels")),
     "'channels'")])
def test_eval_names_the_sidecar_and_field_it_rejects(work, dataset, trained,
                                                     capsys, name, mangle,
                                                     field):
    run = work / f"sidecar_{name}_run"
    run.mkdir()
    (run / "checkpoint.mseg").write_bytes(
        (trained / "checkpoint.mseg").read_bytes())
    cfg = json.loads((trained / "net_config.json").read_text())
    sidecar = run / "net_config.json"
    sidecar.write_text(mangle(cfg))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.mseg"),
                 "--data", str(dataset),
                 "--out", str(work / f"s_sidecar_{name}")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sidecar}: ")
    assert field is None or field in err


@pytest.mark.parametrize("command", ["folds", "eval"])
def test_case_meta_without_stats_names_file_and_field(
        tmp_path, dataset, trained, capsys, command):
    data = tmp_path / "data"
    for case in sorted(p for p in dataset.iterdir() if p.is_dir()):
        (data / case.name).mkdir(parents=True)
        for f in case.iterdir():
            (data / case.name / f.name).write_bytes(f.read_bytes())
    meta = sorted(data.glob("*/meta.json"))[0]
    meta.write_text(json.dumps(_without(json.loads(meta.read_text()),
                                        "stats")))
    args = {"folds": ["folds"],
            "eval": ["eval", "--checkpoint",
                     str(trained / "checkpoint.mseg")]}[command]
    capsys.readouterr()
    assert main(args + ["--data", str(data),
                        "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {meta}: ") and "'stats'" in err


# ---------------------------------------------------------------- analyze

def make_records(n=25):
    rng = np.random.default_rng(0)
    out = []
    for i in range(n):
        d = float(rng.uniform(0.2, 0.9))
        out.append(EvalRecord(
            case_id=f"r{i:03d}",
            dice={"WT": d, "TC": d, "ET": d},
            hd95={"WT": 1.0, "TC": 1.0, "ET": 1.0},
            volumes={"ED": int(rng.integers(50, 500)),
                     "NCR": int(rng.integers(10, 100)),
                     "ET": int(rng.integers(60, 500))}))
    return out


def test_analyze_produces_both_tables(work):
    src = work / "records.csv"
    write_eval_csv(src, make_records())
    d = work / "analysis"
    rc = main(["analyze", "--eval", str(src), "--out", str(d)])
    assert rc == 0
    with open(d / "dice_bins.csv", newline="") as fh:
        bins = list(csv.DictReader(fh))
    with open(d / "et_quintiles.csv", newline="") as fh:
        quints = list(csv.DictReader(fh))
    assert [b["bin"] for b in bins] == ["1", "2", "3", "4", "5"]
    assert [q["quintile"] for q in quints] == ["1", "2", "3", "4", "5"]
    ets = [float(q["mean_et_volume"]) for q in quints]
    assert ets == sorted(ets)


def test_analyze_names_missing_columns(work, capsys):
    # eval's per-region metrics.csv, given where eval_records.csv belongs
    src = work / "metrics.csv"
    src.write_text("case_id,region,dice,hd95,sentinel\nc0,WT,0.5,1.0,0\n")
    assert main(["analyze", "--eval", str(src),
                 "--out", str(work / "a_missing")]) == 1
    err = capsys.readouterr().err
    assert str(src) in err
    assert "dice_wt" in err and "et_volume" in err


def test_analyze_names_a_file_that_is_not_utf8(work, capsys):
    src = work / "latin1.csv"
    write_eval_csv(src, make_records())
    src.write_bytes(src.read_bytes().replace(b"r024", b"r\xff24"))
    assert main(["analyze", "--eval", str(src),
                 "--out", str(work / "a_latin1")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: not UTF-8 text"), err


def test_analyze_too_few_cases_fails(work):
    src = work / "short.csv"
    write_eval_csv(src, make_records(4))
    assert main(["analyze", "--eval", str(src),
                 "--out", str(work / "a2")]) == 1


# ---------------------------------------------------------------- bench

def test_bench_writes_table_and_plot(work):
    d = work / "bench"
    rc = main(["bench", "--resolutions", "64,96,128,160x160x144",
               "--out", str(d)])
    assert rc == 0
    with open(d / "flops.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["resolution"] for r in rows] == \
        ["64x64x64", "96x96x96", "128x128x128", "160x160x144"]
    for r in rows:
        assert int(r["reference_flops"]) > 10 * int(r["dual_flops"])
    svg = (d / "flops.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    # the curves are flops_estimate, which leaves the conv backbone out
    assert "scan placement FLOPs, backbone excluded" in svg
    assert "conv" not in svg


def test_bench_rejects_bad_resolution(work):
    assert main(["bench", "--resolutions", "63",
                 "--out", str(work / "b2")]) == 1
    assert main(["bench", "--resolutions", "64x64",
                 "--out", str(work / "b3")]) == 1
    for i, res in enumerate(["0", "32x0x16", "-16", "64,0"]):
        out = work / f"b_nonpositive{i}"
        assert main(["bench", f"--resolutions={res}",
                     "--out", str(out)]) == 1
        assert not (out / "flops.csv").exists()


# ---------------------------------------------------------------- gradcheck

def test_gradcheck_filtered_passes(work, capsys):
    d = work / "gc"
    rc = main(["gradcheck", "--op", "instance_norm", "--out", str(d)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gradient checks passed" in out
    with open(d / "gradcheck.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["passed"] == "1" for r in rows)


def test_gradcheck_recurrence_checks_one_and_many_chunks(work):
    d = work / "gc_recurrence"
    assert main(["gradcheck", "--op", "recurrence", "--out", str(d)]) == 0
    with open(d / "gradcheck.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(r["name"] for r in rows) == [
        "linear_recurrence", "linear_recurrence_chunks"]
    assert all(r["passed"] == "1" and float(r["max_rel_error"]) < 1e-4
               for r in rows)


def test_gradcheck_sabotage_detected(capsys):
    # flipping one backward sign must trip the checker: exit code 2. The
    # recurrence runs inside the scan op, whose backward calls its adjoint
    rc = main(["gradcheck", "--op", "selective_scan",
               "--sabotage", "linear_recurrence"])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_gradcheck_sabotage_of_unknown_op_is_an_error(capsys):
    # a misspelt op flips nothing, so a clean pass would prove nothing
    rc = main(["gradcheck", "--op", "selective_scan",
               "--sabotage", "linear_recurence"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'linear_recurence'" in err


# ---------------------------------------------------------------- plumbing

def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1
    assert main(["train"]) == 1  # missing required --data


def test_config_file_merging(work, dataset):
    cfg = work / "phantoms.json"
    cfg.write_text(json.dumps(
        {"command": "phantoms", "n": 3, "seed": 9}))
    d1 = work / "cfg_run"
    assert main(["phantoms", "--config", str(cfg), "--out", str(d1)]) == 0
    assert len(load_dataset(d1)) == 3

    d2 = work / "cfg_override"
    assert main(["phantoms", "--config", str(cfg), "--n", "2",
                 "--out", str(d2)]) == 0
    assert len(load_dataset(d2)) == 2  # explicit flag beats the file

    wrong = work / "wrong.json"
    wrong.write_text(json.dumps({"command": "bench"}))
    assert main(["phantoms", "--config", str(wrong),
                 "--out", str(work / "c3")]) == 1

    bad_key = work / "bad_key.json"
    bad_key.write_text(json.dumps({"command": "phantoms", "nn": 1}))
    assert main(["phantoms", "--config", str(bad_key),
                 "--out", str(work / "c4")]) == 1

    assert main(["phantoms", "--config", str(work / "missing.json"),
                 "--out", str(work / "c5")]) == 3

    # an int passes as a float flag, as float() parses the flag
    typed = work / "typed.json"
    typed.write_text(json.dumps({"command": "train", "lr": 1, "steps": 0,
                                 "preset": None, "no_augment": True}))
    d6 = work / "c6"
    assert main(["train", "--config", str(typed), "--data", str(dataset),
                 "--out", str(d6)]) == 0
    echoed = json.loads((d6 / "run_config.json").read_text())
    assert echoed["lr"] == 1.0 and isinstance(echoed["lr"], float)


def test_config_errors_name_the_file(work, capsys):
    for name, text in [("truncated.json", '{"n": 3, '),
                       ("list.json", "[1, 2]"),
                       ("unknown.json", json.dumps({"nn": 1})),
                       ("other.json", json.dumps({"command": "bench"}))]:
        cfg = work / name
        cfg.write_text(text)
        assert main(["phantoms", "--config", str(cfg),
                     "--out", str(work / "c_named")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: "), err

    # a value must pass its flag's own type and choices checks
    for key, config in [
            ("precision", {"command": "gradcheck", "precision": "f16"}),
            ("shape", {"command": "phantoms", "shape": 32}),
            ("n", {"command": "phantoms", "n": [3]}),
            ("n", {"command": "phantoms", "n": 3.0}),
            ("no_augment", {"command": "train", "no_augment": 1}),
            ("lr", {"command": "train", "lr": "1e-3"})]:
        cfg = work / f"bad_{key}.json"
        cfg.write_text(json.dumps(config))
        out = work / f"c_{key}"
        argv = [config["command"], "--config", str(cfg), "--out", str(out)]
        if config["command"] == "train":
            argv += ["--data", str(work / "no_data")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: '{key}' "), err
        assert not out.exists()


def test_run_config_echoed(work, dataset):
    echoed = json.loads((dataset / "run_config.json").read_text())
    assert echoed["command"] == "phantoms"
    assert echoed["n"] == 8
    assert echoed["seed"] == 3
