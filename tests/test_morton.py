"""Z-order sequencing: codes, permutations, gather/scatter, locality."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortonseg import tensor as T
from mortonseg.morton import (LocalityStats, MortonPermutation, bits_for,
                              build_permutation, gather_sequence,
                              locality_stats, morton_code, morton_decode,
                              scatter_back, sequence_positions)
from mortonseg.rng import make_rng


def interleave_oracle(x: int, y: int, z: int, bits: int) -> int:
    """Bit-by-bit reference: x bit i -> code bit 3i, y -> 3i+1, z -> 3i+2."""
    code = 0
    for i in range(bits):
        code |= ((x >> i) & 1) << (3 * i)
        code |= ((y >> i) & 1) << (3 * i + 1)
        code |= ((z >> i) & 1) << (3 * i + 2)
    return code


# -- codes ---------------------------------------------------------------


def test_single_set_bits():
    assert morton_code(1, 0, 0, 1) == 1
    assert morton_code(0, 1, 0, 1) == 2
    assert morton_code(0, 0, 1, 1) == 4
    assert morton_code(1, 1, 1, 1) == 7


def test_all_bits_set():
    assert morton_code(3, 3, 3, 2) == 63


def test_code_matches_bit_interleave_oracle():
    rng = make_rng(31)
    for _ in range(200):
        b = int(rng.integers(1, 11))
        x, y, z = (int(rng.integers(0, 1 << b)) for _ in range(3))
        assert morton_code(x, y, z, b) == interleave_oracle(x, y, z, b)


def test_code_vectorized_matches_scalar():
    rng = make_rng(32)
    xs = rng.integers(0, 16, 50)
    ys = rng.integers(0, 16, 50)
    zs = rng.integers(0, 16, 50)
    codes = morton_code(xs, ys, zs, 4)
    for x, y, z, c in zip(xs, ys, zs, codes):
        assert int(c) == morton_code(int(x), int(y), int(z), 4)


def test_decode_inverts_code():
    rng = make_rng(33)
    for _ in range(100):
        b = int(rng.integers(1, 21))
        xyz = tuple(int(rng.integers(0, 1 << b)) for _ in range(3))
        assert morton_decode(morton_code(*xyz, b), b) == xyz


def test_code_rejects_out_of_range():
    with pytest.raises(ValueError):
        morton_code(4, 0, 0, 2)
    with pytest.raises(ValueError):
        morton_code(-1, 0, 0, 2)
    with pytest.raises(ValueError):
        morton_code(0, 0, 0, 0)
    with pytest.raises(ValueError):
        morton_code(0, 0, 0, 22)


def test_bits_for_extents():
    assert bits_for((1, 1, 1)) == 1
    assert bits_for((2, 2, 2)) == 1
    assert bits_for((3, 3, 3)) == 2
    assert bits_for((8, 8, 8)) == 3
    assert bits_for((10, 10, 9)) == 4


# -- permutations --------------------------------------------------------


def check_bijection(p: MortonPermutation):
    n = p.length
    assert np.array_equal(np.sort(p.forward), np.arange(n))
    assert np.array_equal(p.forward[p.inverse], np.arange(n))
    assert np.array_equal(p.inverse[p.forward], np.arange(n))


def voxel_coords(v: np.ndarray, dims):
    xe, ye, ze = dims
    return v // (ze * ye), (v // ze) % ye, v % ze


def test_bijection_on_sampled_grids_and_crop_grid():
    rng = make_rng(34)
    dims_list = [tuple(int(rng.integers(1, 9)) for _ in range(3))
                 for _ in range(12)]
    dims_list.append((10, 10, 9))
    for dims in dims_list:
        p = build_permutation(dims)
        assert p.length == dims[0] * dims[1] * dims[2]
        check_bijection(p)


def test_monotone_code_order():
    rng = make_rng(35)
    for dims in [(3, 5, 2), (8, 8, 8), (10, 10, 9),
                 tuple(int(rng.integers(1, 9)) for _ in range(3))]:
        p = build_permutation(dims)
        x, y, z = voxel_coords(p.forward, dims)
        codes = morton_code(x, y, z, p.bits)
        assert np.all(np.diff(codes.astype(np.int64)) > 0)


def test_unit_grid():
    p = build_permutation((1, 1, 1))
    assert list(p.forward) == [0]
    assert list(p.inverse) == [0]


def test_dyadic_cube_visits_code_order():
    # on 2x2x2 every code 0..7 occurs, so sequence position == code
    p = build_permutation((2, 2, 2))
    x, y, z = voxel_coords(np.arange(8), (2, 2, 2))
    codes = morton_code(x, y, z, 1)
    assert np.array_equal(p.inverse, codes.astype(np.int64))


def test_build_permutation_rejects_bad_dims():
    with pytest.raises(ValueError):
        build_permutation((0, 2, 2))
    with pytest.raises(ValueError):
        build_permutation((2, 2))


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)))
def test_bijection_property(dims):
    check_bijection(build_permutation(dims))


# -- gather / scatter ------------------------------------------------------


def test_round_trip_identity_bit_exact():
    rng = make_rng(36)
    feat = T.Tensor(rng.normal(0, 1, (4, 3, 5, 2)), dtype=np.float64)
    p = build_permutation((3, 5, 2))
    seq = gather_sequence(feat, p)
    assert seq.shape == (30, 4)
    back = scatter_back(seq, p)
    assert np.array_equal(back.data, feat.data)


def test_gather_preserves_multiset_and_norm():
    rng = make_rng(37)
    feat = T.Tensor(rng.normal(0, 1, (2, 4, 4, 4)), dtype=np.float64)
    p = build_permutation((4, 4, 4))
    seq = gather_sequence(feat, p)
    assert np.isclose(np.linalg.norm(seq.data), np.linalg.norm(feat.data),
                      rtol=0, atol=0)
    assert np.array_equal(np.sort(seq.data.ravel()),
                          np.sort(feat.data.ravel()))


def test_constant_volume_gives_constant_sequence():
    feat = T.Tensor(np.full((3, 2, 3, 4), 1.5), dtype=np.float64)
    p = build_permutation((2, 3, 4))
    assert np.all(gather_sequence(feat, p).data == 1.5)


def test_gather_gradient_is_ones():
    feat = T.Tensor(np.zeros((2, 3, 2, 2)), requires_grad=True,
                    dtype=np.float64)
    p = build_permutation((3, 2, 2))
    gather_sequence(feat, p).backward(np.ones((12, 2)))
    assert np.array_equal(feat.grad, np.ones((2, 3, 2, 2)))


def test_scatter_gradient_is_inverse_permutation():
    rng = make_rng(38)
    p = build_permutation((2, 2, 3))
    seq = T.Tensor(rng.normal(0, 1, (12, 2)), requires_grad=True,
                   dtype=np.float64)
    probe = rng.normal(0, 1, (2, 2, 2, 3))
    out = scatter_back(seq, p)
    out.backward(probe)
    # pushing the probe through the inverse path must recover it exactly
    expect = gather_sequence(T.Tensor(probe, dtype=np.float64), p).data
    assert np.array_equal(seq.grad, expect)


def test_gather_rejects_mismatched_dims():
    p = build_permutation((2, 2, 2))
    with pytest.raises(ValueError):
        gather_sequence(T.Tensor(np.zeros((1, 2, 2, 3))), p)
    with pytest.raises(ValueError):
        scatter_back(T.Tensor(np.zeros((9, 1))), p)


# -- locality ---------------------------------------------------------------


def pair_distance_oracle(dims, ordering):
    """All face-adjacent pairs by explicit iteration."""
    pos = sequence_positions(dims, ordering)
    xe, ye, ze = dims
    out = []
    for x, y, z in itertools.product(range(xe), range(ye), range(ze)):
        if x + 1 < xe:
            out.append(abs(int(pos[x + 1, y, z]) - int(pos[x, y, z])))
        if y + 1 < ye:
            out.append(abs(int(pos[x, y + 1, z]) - int(pos[x, y, z])))
        if z + 1 < ze:
            out.append(abs(int(pos[x, y, z + 1]) - int(pos[x, y, z])))
    return out


@pytest.mark.parametrize("ordering", ["morton", "row_major", "axiswise"])
def test_locality_stats_match_pair_oracle(ordering):
    dims = (3, 4, 2)
    dists = pair_distance_oracle(dims, ordering)
    st_ = locality_stats(dims, ordering)
    assert st_.n_pairs == len(dists)
    assert np.isclose(st_.mean, np.mean(dists))
    assert np.isclose(st_.median, np.median(dists))
    assert st_.max == max(dists)


def test_degenerate_line_identical_stats():
    m = locality_stats((1, 1, 7), "morton")
    r = locality_stats((1, 1, 7), "row_major")
    assert (m.n_pairs, m.mean, m.median, m.max) == \
        (r.n_pairs, r.mean, r.median, r.max)


def test_two_cube_hand_enumeration():
    # 12 face pairs on 2x2x2; both orderings step axes with weights {1,2,4},
    # so each sums to 4*(1+2+4) = 28 and the mean is 7/3
    for ordering in ("morton", "row_major"):
        s = locality_stats((2, 2, 2), ordering)
        assert s.n_pairs == 12
        assert np.isclose(s.mean, 7.0 / 3.0)


def test_locality_pinned_values_8cube():
    # exhaustive enumeration, frozen: on a dyadic cube Morton is a bit
    # permutation of the row-major index, so the axis-sum (and with it the
    # mean) is conserved at 73/3 while the distributions differ sharply
    m = locality_stats((8, 8, 8), "morton")
    r = locality_stats((8, 8, 8), "row_major")
    assert m.n_pairs == r.n_pairs == 1344
    assert np.isclose(m.mean, 73.0 / 3.0, rtol=0, atol=1e-12)
    assert np.isclose(r.mean, 73.0 / 3.0, rtol=0, atol=1e-12)
    assert m.median == 4.0 and r.median == 8.0
    assert m.max == 220 and r.max == 64


def test_locality_pinned_values_crop_grid():
    # non-dyadic (10,10,9): compaction breaks the conservation argument
    # and row-major actually wins on the mean; Morton keeps the lower median
    m = locality_stats((10, 10, 9), "morton")
    r = locality_stats((10, 10, 9), "row_major")
    assert m.n_pairs == r.n_pairs == 2420
    assert np.isclose(m.mean, 11843.0 / 242.0, rtol=0, atol=1e-12)
    assert np.isclose(r.mean, 8099.0 / 242.0, rtol=0, atol=1e-12)
    assert m.median == 4.0 and r.median == 9.0


def test_locality_rejects_unknown_ordering():
    with pytest.raises(ValueError):
        locality_stats((2, 2, 2), "hilbert")
