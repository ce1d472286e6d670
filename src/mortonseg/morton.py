"""Z-order (Morton) voxel sequencing.

Maps a 3D grid to a 1D sequence by sorting voxels on their Morton code,
the integer formed by interleaving coordinate bits: bit i of x lands at
code bit 3i, y at 3i+1, z at 3i+2. Nearby voxels share high-order bits,
so they tend to land near each other in the sequence, unlike row-major
flattening where a one-step move along the slow axis jumps a full plane.

Non-dyadic grids need no padding: codes are computed for exactly the
in-bounds voxels and sorted. The result is the subsequence of the
enclosing dyadic cube's Z-curve restricted to real voxels.

Grid convention: dims = (X, Y, Z); the linear (row-major) voxel index is
v = (x*Y + y)*Z + z, i.e. z varies fastest, matching a numpy reshape of
a (C, X, Y, Z) feature block to (C, X*Y*Z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

MAX_BITS = 21  # 3*21 = 63 code bits, fits uint64

_U = np.uint64


def _part1by2(v: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of v so bit i moves to bit 3i."""
    v = v.astype(np.uint64) & _U(0x1FFFFF)
    v = (v | (v << _U(32))) & _U(0x1F00000000FFFF)
    v = (v | (v << _U(16))) & _U(0x1F0000FF0000FF)
    v = (v | (v << _U(8))) & _U(0x100F00F00F00F00F)
    v = (v | (v << _U(4))) & _U(0x10C30C30C30C30C3)
    v = (v | (v << _U(2))) & _U(0x1249249249249249)
    return v


def _compact1by2(v: np.ndarray) -> np.ndarray:
    """Inverse of _part1by2: collect every third bit."""
    v = v.astype(np.uint64) & _U(0x1249249249249249)
    v = (v ^ (v >> _U(2))) & _U(0x10C30C30C30C30C3)
    v = (v ^ (v >> _U(4))) & _U(0x100F00F00F00F00F)
    v = (v ^ (v >> _U(8))) & _U(0x1F0000FF0000FF)
    v = (v ^ (v >> _U(16))) & _U(0x1F00000000FFFF)
    v = (v ^ (v >> _U(32))) & _U(0x1FFFFF)
    return v


def morton_code(x, y, z, bits: int):
    """Interleave coordinate bits: x -> 3i, y -> 3i+1, z -> 3i+2.

    Accepts scalars or equal-shape integer arrays; coordinates must lie
    in [0, 2^bits).
    """
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in [1, {MAX_BITS}]")
    xa, ya, za = (np.asarray(c, dtype=np.int64) for c in (x, y, z))
    limit = 1 << bits
    for name, c in (("x", xa), ("y", ya), ("z", za)):
        if np.any(c < 0) or np.any(c >= limit):
            raise ValueError(f"coordinate {name} outside [0, 2^{bits})")
    code = _part1by2(xa) | (_part1by2(ya) << _U(1)) | (_part1by2(za) << _U(2))
    if np.isscalar(x) or code.ndim == 0:
        return int(code)
    return code


def morton_decode(code, bits: int):
    """Inverse of morton_code: code -> (x, y, z)."""
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in [1, {MAX_BITS}]")
    ca = np.asarray(code, dtype=np.uint64)
    x = _compact1by2(ca)
    y = _compact1by2(ca >> _U(1))
    z = _compact1by2(ca >> _U(2))
    if np.isscalar(code) or ca.ndim == 0:
        return int(x), int(y), int(z)
    return x.astype(np.int64), y.astype(np.int64), z.astype(np.int64)


def bits_for(dims: tuple) -> int:
    """Smallest b with every extent <= 2^b, clamped to at least 1."""
    m = max(dims)
    if m > (1 << MAX_BITS):
        raise ValueError(f"extent {m} exceeds the {MAX_BITS}-bit limit")
    return max(1, int(m - 1).bit_length())


@dataclass(frozen=True)
class MortonPermutation:
    """Bijection between a (X, Y, Z) grid and its Morton sequence.

    forward[i] = linear voxel index of sequence position i;
    inverse[v] = sequence position of voxel v. Immutable and shareable.
    """
    dims: tuple
    bits: int
    forward: np.ndarray
    inverse: np.ndarray

    @property
    def length(self) -> int:
        return self.forward.size


def build_permutation(dims) -> MortonPermutation:
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ValueError(f"dims must be three positive extents, got {dims}")
    xe, ye, ze = dims
    b = bits_for(dims)
    v = np.arange(xe * ye * ze, dtype=np.int64)
    z = v % ze
    y = (v // ze) % ye
    x = v // (ze * ye)
    codes = morton_code(x, y, z, b)
    # codes are unique, so argsort is a total deterministic order
    forward = np.argsort(codes, kind="stable").astype(np.int64)
    inverse = np.empty_like(forward)
    inverse[forward] = v
    return MortonPermutation(dims=dims, bits=b, forward=forward, inverse=inverse)


def _to_sequence(a: np.ndarray, p: MortonPermutation) -> np.ndarray:
    """(C, X, Y, Z) -> (L, C): gather the voxels in Morton order."""
    return np.take(a.reshape(a.shape[0], p.length), p.forward, axis=1).T


def _to_grid(a: np.ndarray, p: MortonPermutation) -> np.ndarray:
    """(L, C) -> (C, X, Y, Z): scatter a Morton sequence back to voxels."""
    return np.take(a, p.inverse, axis=0).T.reshape((a.shape[1],) + p.dims)


def gather_sequence(feat: Tensor, p: MortonPermutation) -> Tensor:
    """(C, X, Y, Z) -> (L, C) in Morton order; its adjoint is _to_grid."""
    if tuple(feat.shape[1:]) != p.dims:
        raise ValueError(f"feature dims {feat.shape[1:]} != grid {p.dims}")
    return Tensor._make(_to_sequence(feat.data, p), (feat,),
                        lambda g: (_to_grid(g, p),), "morton_gather")


def scatter_back(seq: Tensor, p: MortonPermutation) -> Tensor:
    """(L, C) Morton sequence -> (C, X, Y, Z); its adjoint is _to_sequence."""
    ln, _ = seq.shape
    if ln != p.length:
        raise ValueError(f"sequence length {ln} != grid size {p.length}")
    # the scans' backward walks the gradient token by token: keep it C-order
    return Tensor._make(
        _to_grid(seq.data, p), (seq,),
        lambda g: (np.ascontiguousarray(_to_sequence(g, p)),), "morton_scatter")


ORDERINGS = ("morton", "row_major", "axiswise")


@dataclass(frozen=True)
class LocalityStats:
    ordering: str
    dims: tuple
    n_pairs: int
    mean: float
    median: float
    p10: float
    p90: float
    max: int


def sequence_positions(dims, ordering: str) -> np.ndarray:
    """(X, Y, Z) array of each voxel's position in the chosen sequence."""
    dims = tuple(int(d) for d in dims)
    xe, ye, ze = dims
    n = xe * ye * ze
    if ordering == "morton":
        return build_permutation(dims).inverse.reshape(dims)
    if ordering == "row_major":
        # memory order: z fastest
        return np.arange(n, dtype=np.int64).reshape(dims)
    if ordering == "axiswise":
        # transposed raster: x fastest (the slicewise comparator)
        return np.arange(n, dtype=np.int64).reshape(ze, ye, xe).transpose(2, 1, 0)
    raise ValueError(f"ordering must be one of {ORDERINGS}")


def locality_stats(dims, ordering: str) -> LocalityStats:
    """Exact |seq(u)-seq(v)| statistics over all 6-neighbor pairs.

    Each unordered face-adjacent pair is counted once (three positive
    axis directions); the metric is symmetric so orientation is moot.
    """
    pos = sequence_positions(dims, ordering)
    diffs = []
    for ax in range(3):
        moved = np.moveaxis(pos, ax, 0)
        if moved.shape[0] > 1:
            diffs.append(np.abs(moved[1:] - moved[:-1]).ravel())
    d = np.concatenate(diffs) if diffs else np.zeros(0, dtype=np.int64)
    if d.size == 0:
        return LocalityStats(ordering, tuple(dims), 0, 0.0, 0.0, 0.0, 0.0, 0)
    return LocalityStats(
        ordering=ordering, dims=tuple(dims), n_pairs=int(d.size),
        mean=float(d.mean()), median=float(np.median(d)),
        p10=float(np.percentile(d, 10)), p90=float(np.percentile(d, 90)),
        max=int(d.max()))
