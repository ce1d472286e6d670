"""Data layer: file format, synthetic cases, folds and score analyses.

Volume files are checked for bit-exact roundtrips and loud failure on
every corruption mode. Phantom invariants (region nesting, target hit,
zero background) are asserted over many seeds. Fold balance and the
binning analyses are checked against hand-constructed inputs where the
correct grouping is known by enumeration.
"""

import csv
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mortonseg.analysis import (
    EvalRecord,
    analyze_dice_bins,
    analyze_et_quintiles,
    read_eval_csv,
    write_eval_csv,
    write_rows_csv,
)
from mortonseg.folds import (
    N_FOLDS,
    FoldAssignment,
    build_systematic_folds,
    load_folds,
    save_folds,
)
from mortonseg.phantom import (
    LABEL_ED,
    LABEL_ET,
    LABEL_NCR,
    MODALITY_NAMES,
    compute_fiv,
    compute_region_volumes,
    generate_phantom,
    load_case,
    load_dataset,
    normalize_modalities,
    save_case,
)
from mortonseg.rng import make_rng
from mortonseg.volume_io import VolumeFormatError, read_volume, write_volume


# ---------------------------------------------------------------- rng

def test_make_rng_deterministic_per_path():
    a = make_rng(3, 1, 2).random(8)
    b = make_rng(3, 1, 2).random(8)
    c = make_rng(3, 1, 3).random(8)
    d = make_rng(4, 1, 2).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_make_rng_rejects_negative():
    with pytest.raises(ValueError):
        make_rng(-1)
    with pytest.raises(ValueError):
        make_rng(0, -2)


# ---------------------------------------------------------------- volume_io

def test_volume_roundtrip_f32(tmp_path):
    rng = np.random.default_rng(0)
    vol = rng.standard_normal((5, 6, 7)).astype(np.float32)
    p = tmp_path / "v.vol"
    write_volume(p, vol, spacing=(1.0, 2.0, 0.5), name="t1")
    back, meta = read_volume(p)
    np.testing.assert_array_equal(back, vol)
    assert back.dtype == np.float32
    assert meta["dims"] == [5, 6, 7]
    assert meta["spacing"] == [1.0, 2.0, 0.5]
    assert meta["name"] == "t1"


def test_volume_roundtrip_u8(tmp_path):
    vol = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    p = tmp_path / "v.vol"
    write_volume(p, vol)
    back, meta = read_volume(p)
    np.testing.assert_array_equal(back, vol)
    assert back.dtype == np.uint8
    assert meta["dtype"] == "u8"


def test_volume_write_rejects_bad_inputs(tmp_path):
    with pytest.raises(VolumeFormatError):
        write_volume(tmp_path / "x.vol", np.zeros((4, 4), np.float32))
    with pytest.raises(VolumeFormatError):
        write_volume(tmp_path / "x.vol", np.zeros((4, 4, 4), np.float64))


def test_volume_read_rejects_truncation(tmp_path):
    p = tmp_path / "v.vol"
    write_volume(p, np.zeros((4, 4, 4), np.float32))
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(VolumeFormatError, match="bytes"):
        read_volume(p)


def test_volume_read_rejects_trailing_garbage(tmp_path):
    p = tmp_path / "v.vol"
    write_volume(p, np.zeros((4, 4, 4), np.float32))
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(VolumeFormatError):
        read_volume(p)


def test_volume_read_rejects_missing_fence(tmp_path):
    p = tmp_path / "v.vol"
    p.write_bytes(b'{"dims": [1, 1, 1]}')
    with pytest.raises(VolumeFormatError, match="fence"):
        read_volume(p)


def test_volume_read_rejects_bad_header(tmp_path):
    p = tmp_path / "v.vol"
    p.write_bytes(b"not json\n\x00" + b"\x00" * 4)
    with pytest.raises(VolumeFormatError, match="header"):
        read_volume(p)


def test_volume_read_rejects_unknown_dtype_tag(tmp_path):
    p = tmp_path / "v.vol"
    header = json.dumps({"dims": [1, 1, 1], "dtype": "f64",
                         "spacing": [1, 1, 1], "name": ""}).encode()
    p.write_bytes(header + b"\n\x00" + b"\x00" * 8)
    with pytest.raises(VolumeFormatError, match="dtype"):
        read_volume(p)


def test_volume_read_rejects_missing_key(tmp_path):
    p = tmp_path / "v.vol"
    header = json.dumps({"dims": [1, 1, 1], "dtype": "u8"}).encode()
    p.write_bytes(header + b"\n\x00" + b"\x00")
    with pytest.raises(VolumeFormatError, match="spacing"):
        read_volume(p)


def _header(**fields):
    meta = {"dims": [1, 1, 1], "dtype": "u8", "spacing": [1, 1, 1],
            "name": ""}
    meta.update(fields)
    return json.dumps(meta).encode()


@pytest.mark.parametrize("header, body", [
    (b"5", b""),                                   # not an object
    (_header(dims=["a"]), b"\x00"),
    (_header(dims=[2, 2]), b"\x00" * 4),            # not three extents
    (_header(dims=[2 ** 32, 2 ** 32, 1]), b""),    # wraps an int64 product
    (_header(dims=[0, 2 ** 31, 6147483648]), b""),  # 0 bytes, too big a shape
    (_header(dims=[-2, -2, 1]), b"\x00" * 4),
    (_header(dims=[1.5, 2, 1]), b"\x00" * 3),
    (_header(dtype=["u8"]), b"\x00"),               # unhashable tag
], ids=["scalar", "string-dim", "two-dims", "wrap", "empty-too-big",
        "negative", "float", "list-dtype"])
def test_volume_read_rejects_bad_header_fields(tmp_path, header, body):
    p = tmp_path / "v.vol"
    p.write_bytes(header + b"\n\x00" + body)
    with pytest.raises(VolumeFormatError):
        read_volume(p)


# the empty volume's leading "0" sits at offset 10; 0 -> 8 makes the
# extents multiply to 2**65, which an int64 product wraps back to 0.
# Bit 3210 turns its last extent into 6147483648: still no element, but
# a shape numpy refuses to build
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(empty=True, mutation=("flip", 10 * 8 + 3))
@example(empty=True, mutation=("flip", 3210))
@given(empty=st.booleans(),
       mutation=st.tuples(st.sampled_from(["cut", "flip"]),
                          st.integers(0, 10_000)))
def test_volume_corruption_raises_only_volume_format_error(tmp_path, empty,
                                                           mutation):
    p = tmp_path / "v.vol"
    if empty:
        write_volume(p, np.zeros((0, 2 ** 31, 2 ** 31), np.uint8))
    else:
        write_volume(p, np.arange(12, dtype=np.float32).reshape(2, 3, 2),
                     name="t1")
    raw = bytearray(p.read_bytes())
    kind, i = mutation
    if kind == "cut":
        raw = raw[:i % len(raw)]
    else:
        i %= 8 * len(raw)
        raw[i // 8] ^= 1 << (i % 8)
    p.write_bytes(bytes(raw))
    try:
        vol, _ = read_volume(p)
    except VolumeFormatError:
        return
    assert vol.ndim == 3


# ---------------------------------------------------------------- phantom

def test_phantom_deterministic():
    a = generate_phantom(11)
    b = generate_phantom(11)
    np.testing.assert_array_equal(a.modalities, b.modalities)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.stats == b.stats


def test_phantom_region_nesting_and_stats():
    case = generate_phantom(0)
    labs = case.labels
    ed, ncr, et = compute_region_volumes(labs)
    assert min(ed, ncr, et) > 0
    assert case.stats.ed_volume == ed
    assert case.stats.ncr_volume == ncr
    assert case.stats.et_volume == et
    assert case.modalities.shape == (4,) + labs.shape
    assert case.modalities.dtype == np.float32
    assert labs.dtype == np.uint8
    assert set(np.unique(labs)) <= {0, LABEL_ED, LABEL_NCR, LABEL_ET}
    # tumor sits strictly inside the brain: every labeled voxel is nonzero
    wt = labs > 0
    for m in range(4):
        assert (case.modalities[m][wt] != 0).all()


def test_phantom_background_exactly_zero():
    case = generate_phantom(1)
    nz = case.modalities[0] != 0
    for m in range(1, 4):
        np.testing.assert_array_equal(case.modalities[m] != 0, nz)
    assert not nz.all() and nz.any()


@pytest.mark.parametrize("target", [80, 150, 300, 400])
def test_phantom_hits_et_target(target):
    for seed in range(6):
        case = generate_phantom(seed, et_volume_target=target)
        assert 0.8 * target <= case.stats.et_volume <= 1.2 * target


def test_phantom_zero_target_means_no_rim():
    case = generate_phantom(2, et_volume_target=0)
    assert case.stats.et_volume == 0
    assert case.stats.ed_volume > 0 and case.stats.ncr_volume > 0


def test_phantom_fiv_spans_5x_over_50_seeds():
    fivs = [generate_phantom(s).stats.fiv for s in range(50)]
    assert min(fivs) > 0
    assert max(fivs) / min(fivs) >= 5.0


def test_phantom_heterogeneity_orders_fiv():
    lo = generate_phantom(3, heterogeneity=0.2).stats.fiv
    hi = generate_phantom(3, heterogeneity=3.0).stats.fiv
    assert hi > 2 * lo


def test_phantom_rejects_bad_requests():
    with pytest.raises(ValueError):
        generate_phantom(0, shape=(8, 32, 32))
    with pytest.raises(ValueError):
        generate_phantom(0, et_volume_target=-1)
    with pytest.raises(ValueError):
        generate_phantom(0, et_volume_target=50_000)


def test_compute_fiv_affine_invariant():
    case = generate_phantom(4)
    base = compute_fiv(case.modalities, case.labels)
    mods = case.modalities.astype(np.float64).copy()
    for m in range(4):
        nz = mods[m] != 0
        mods[m][nz] = mods[m][nz] * (2.0 + m) + 0.3
    assert compute_fiv(mods, case.labels) == pytest.approx(base, rel=1e-4)


def test_compute_fiv_rejects_empty_tumor():
    case = generate_phantom(5)
    with pytest.raises(ValueError):
        compute_fiv(case.modalities, np.zeros_like(case.labels))


def test_normalize_modalities_zscores_brain():
    case = generate_phantom(6)
    out = normalize_modalities(case.modalities)
    assert out.dtype == np.float32
    for m in range(4):
        nz = case.modalities[m] != 0
        np.testing.assert_array_equal(out[m][~nz], 0.0)
        assert out[m][nz].mean() == pytest.approx(0.0, abs=1e-4)
        assert out[m][nz].std() == pytest.approx(1.0, abs=1e-4)


def test_case_directory_roundtrip(tmp_path):
    case = generate_phantom(7)
    d = save_case(tmp_path, case)
    assert d == tmp_path / case.case_id
    assert sorted(p.name for p in d.iterdir()) == sorted(
        [f"{n}.vol" for n in MODALITY_NAMES] + ["labels.vol", "meta.json"])
    back = load_case(d)
    assert back.case_id == case.case_id
    np.testing.assert_array_equal(back.modalities, case.modalities)
    np.testing.assert_array_equal(back.labels, case.labels)
    assert back.stats == case.stats


def test_load_dataset_sorted_and_strict(tmp_path):
    for seed in (3, 1, 2):
        save_case(tmp_path, generate_phantom(seed))
    cases = load_dataset(tmp_path)
    assert [c.case_id for c in cases] == sorted(c.case_id for c in cases)
    assert len(cases) == 3
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "empty")


# ---------------------------------------------------------------- folds

def synth_pairs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [(f"c{i:03d}", float(v)) for i, v in enumerate(rng.random(n))]


def fold_bin_counts(fa):
    counts = {}
    for cid, fold in fa.assignment.items():
        key = (fold, fa.bins[cid])
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_folds_partition_all_cases():
    pairs = synth_pairs(50)
    fa = build_systematic_folds(pairs, seed=1)
    seen = []
    for f in range(1, N_FOLDS + 1):
        seen += fa.fold_cases(f)
    assert sorted(seen) == sorted(cid for cid, _ in pairs)
    assert set(fa.assignment.values()) == set(range(1, N_FOLDS + 1))


def test_folds_50_cases_perfectly_balanced():
    fa = build_systematic_folds(synth_pairs(50), seed=2)
    counts = fold_bin_counts(fa)
    # 10 cases per bin dealt over 5 folds: exactly 2 from each stratum
    assert set(counts.values()) == {2}
    assert len(counts) == 25


def test_folds_53_cases_within_one():
    fa = build_systematic_folds(synth_pairs(53), seed=3)
    counts = fold_bin_counts(fa)
    assert set(counts.values()) <= {2, 3}
    totals = [len(fa.fold_cases(f)) for f in range(1, N_FOLDS + 1)]
    assert max(totals) - min(totals) <= 1
    assert sum(totals) == 53


def test_folds_per_fold_mean_fiv_close_to_global():
    pairs = synth_pairs(50, seed=4)
    fa = build_systematic_folds(pairs, seed=5)
    fiv = dict(pairs)
    global_mean = np.mean(list(fiv.values()))
    for f in range(1, N_FOLDS + 1):
        fold_mean = np.mean([fiv[c] for c in fa.fold_cases(f)])
        assert abs(fold_mean - global_mean) <= 0.05 * global_mean


def test_folds_deterministic_and_seed_sensitive():
    pairs = synth_pairs(23)
    a = build_systematic_folds(pairs, seed=9)
    b = build_systematic_folds(list(reversed(pairs)), seed=9)
    c = build_systematic_folds(pairs, seed=10)
    assert a.assignment == b.assignment
    assert a.bins == b.bins
    assert a.assignment != c.assignment


def test_folds_bin_edges_monotone():
    pairs = synth_pairs(37)
    fa = build_systematic_folds(pairs, seed=6)
    edges = fa.bin_edges
    assert len(edges) == 6
    assert edges == sorted(edges)
    vals = sorted(v for _, v in pairs)
    assert edges[0] == vals[0] and edges[-1] == vals[-1]


def test_folds_reject_bad_inputs():
    with pytest.raises(ValueError):
        build_systematic_folds(synth_pairs(4), seed=0)
    dup = synth_pairs(6)
    dup[3] = (dup[2][0], 0.5)
    with pytest.raises(ValueError):
        build_systematic_folds(dup, seed=0)


def test_folds_json_roundtrip(tmp_path):
    fa = build_systematic_folds(synth_pairs(17), seed=7)
    p = tmp_path / "folds.json"
    save_folds(p, fa)
    back = load_folds(p)
    assert back == fa
    assert FoldAssignment.from_json(fa.to_json()) == fa


def malformed_folds(**change):
    d = json.loads(build_systematic_folds(synth_pairs(10), seed=1).to_json())
    for key, value in change.items():
        d[key] = value
    return d


@pytest.mark.parametrize("doc, field", [
    pytest.param([], "top level", id="top_level_list"),
    pytest.param(malformed_folds(assignment=5), "assignment",
                 id="assignment_int"),
    pytest.param(malformed_folds(bins=["c000"]), "bins", id="bins_list"),
    pytest.param(malformed_folds(assignment={"c000": 9}), "assignment",
                 id="fold_9"),
    pytest.param(malformed_folds(assignment={"c000": True}), "assignment",
                 id="fold_bool"),
    pytest.param(malformed_folds(bins={"c000": 0}), "bins", id="bin_0"),
    pytest.param(malformed_folds(bin_edges=[0.0, 1.0, 2.0, 3.0, 4.0]),
                 "bin_edges", id="five_edges"),
    pytest.param(malformed_folds(bin_edges=[0.0, 1.0, 2.0, 3.0, 4.0, "5"]),
                 "bin_edges", id="string_edge"),
    pytest.param({k: v for k, v in malformed_folds().items() if k != "seed"},
                 "seed", id="no_seed"),
    pytest.param(malformed_folds(version="99"), "version", id="version_99"),
    pytest.param(malformed_folds(seed=[1]), "seed", id="seed_list"),
    pytest.param(malformed_folds(seed=1.5), "seed", id="seed_float"),
    pytest.param(malformed_folds(seed="7"), "seed", id="seed_string"),
    pytest.param(malformed_folds(seed=True), "seed", id="seed_bool"),
])
def test_load_folds_rejects_malformed_file(tmp_path, doc, field):
    p = tmp_path / "folds.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_folds(p)
    assert str(p) in str(err.value) and field in str(err.value)


# ---------------------------------------------------------------- analysis

def rec(i, mean_d, et, ed=100, ncr=50):
    # all three regions share the dice value, so mean_dice == mean_d
    return EvalRecord(case_id=f"r{i:02d}",
                      dice={"WT": mean_d, "TC": mean_d, "ET": mean_d},
                      hd95={"WT": 1.0, "TC": 2.0, "ET": 3.0},
                      volumes={"ED": ed, "NCR": ncr, "ET": et})


def test_dice_bins_rank_oracle():
    # dice ascends with index, so bins are the index chunks by construction
    records = [rec(i, i / 100.0, et=10 * i) for i in range(25)]
    rng = np.random.default_rng(9)
    shuffled = [records[j] for j in rng.permutation(25)]
    rows = analyze_dice_bins(shuffled)
    assert [r["bin"] for r in rows] == [1, 2, 3, 4, 5]
    assert all(r["count"] == 5 for r in rows)
    for b, row in enumerate(rows):
        idx = range(5 * b, 5 * b + 5)
        assert row["dice_lo"] == pytest.approx(min(i / 100 for i in idx))
        assert row["dice_hi"] == pytest.approx(max(i / 100 for i in idx))
        assert row["mean_et_volume"] == pytest.approx(
            np.mean([10 * i for i in idx]))
        assert row["mean_ed_volume"] == 100.0


def test_dice_bins_uneven_split_counts():
    rows = analyze_dice_bins([rec(i, i / 40.0, et=i) for i in range(27)])
    assert [r["count"] for r in rows] == [6, 6, 5, 5, 5]


def test_et_quintiles_oracle():
    # lowest-dice bin is records 0..4; their |ET| ordering drives quintiles
    ets = [400, 100, 300, 500, 200]
    records = [rec(i, i / 100.0, et=ets[i]) for i in range(5)]
    records += [rec(i, i / 100.0, et=999) for i in range(5, 25)]
    rows = analyze_et_quintiles(records)
    assert [r["quintile"] for r in rows] == [1, 2, 3, 4, 5]
    assert [r["mean_et_volume"] for r in rows] == [100, 200, 300, 400, 500]
    # dice follows the record whose |ET| landed in the quintile
    order = np.argsort(ets, kind="stable")
    want = [records[int(i)].mean_dice for i in order]
    assert [r["mean_dice"] for r in rows] == pytest.approx(want)


def test_analysis_ties_resolve_by_case_id():
    records = [rec(i, 0.5, et=7) for i in range(25)]
    a = analyze_dice_bins(records)
    b = analyze_dice_bins(list(reversed(records)))
    assert a == b


def test_analysis_rejects_small_inputs():
    with pytest.raises(ValueError):
        analyze_dice_bins([rec(i, 0.1 * i, et=1) for i in range(4)])
    with pytest.raises(ValueError):
        # 5 records make a 1-case lowest bin, too small to subdivide
        analyze_et_quintiles([rec(i, 0.1 * i, et=1) for i in range(5)])


def test_eval_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    records = [rec(i, float(rng.random()), et=int(rng.integers(1, 500)))
               for i in range(8)]
    p = tmp_path / "eval.csv"
    write_eval_csv(p, records)
    back = read_eval_csv(p)
    assert [r.case_id for r in back] == sorted(r.case_id for r in records)
    by_id = {r.case_id: r for r in records}
    for r in back:
        src = by_id[r.case_id]
        assert r.volumes == src.volumes
        for reg in ("WT", "TC", "ET"):
            assert r.dice[reg] == pytest.approx(src.dice[reg], abs=1e-6)
            assert r.hd95[reg] == pytest.approx(src.hd95[reg], abs=1e-6)


def test_eval_csv_short_row_names_file_and_line(tmp_path):
    p = tmp_path / "eval.csv"
    write_eval_csv(p, [rec(0, 0.5, et=10)])
    with open(p, "a", newline="") as fh:
        fh.write("case_000,0.5\r\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: line 3")):
        read_eval_csv(p)


def test_eval_csv_long_row_names_file_and_line(tmp_path):
    p = tmp_path / "eval.csv"
    write_eval_csv(p, [rec(0, 0.5, et=10)])
    with open(p, newline="") as fh:
        row = fh.read().splitlines()[1]
    with open(p, "a", newline="") as fh:
        fh.write(row.replace("r00", "r01") + ",extra,more\r\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: line 3")):
        read_eval_csv(p)


def test_rows_csv_roundtrip(tmp_path):
    rows = analyze_dice_bins([rec(i, i / 30.0, et=i) for i in range(25)])
    p = tmp_path / "bins.csv"
    write_rows_csv(p, list(rows[0]), [list(r.values()) for r in rows])
    with open(p, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 5
    assert list(back[0].keys()) == list(rows[0].keys())
    assert int(back[2]["bin"]) == 3
    assert float(back[2]["mean_et_volume"]) == pytest.approx(
        rows[2]["mean_et_volume"], abs=1e-6)
    # no rows: the header alone, as a zero-step loss log is written
    empty = tmp_path / "empty.csv"
    write_rows_csv(empty, ["step", "total"], [])
    assert empty.read_bytes() == b"step,total\r\n"
