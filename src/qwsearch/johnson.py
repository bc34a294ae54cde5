"""Exact construction of the Johnson graph J(n,k) in the full vertex space.

Vertices are the k-subsets of {1,...,n}, encoded as bitmasks (bit i set
means element i+1 is in the subset) and numbered by colexicographic rank.
Two subsets are adjacent when they share exactly k-1 elements, which makes
J(n,k) regular of degree k(n-k) with diameter k once n >= 2k.

The dense N x N objects built here (adjacency, search Hamiltonian) exist
only as oracles for small instances, so they are guarded by a vertex cap;
everything asymptotic runs through the (k+1)-dimensional model in
:mod:`qwsearch.spectral`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

# Dense N x N work stays cheap (seconds, well under 0.1 GB) up to this many
# vertices; overridable per call and via the CLI.
DEFAULT_FULL_CAP = 3003


@dataclass(frozen=True)
class GraphParams:
    """The pair (n, k) selecting J(n,k); requires k >= 1 and n >= 2k."""

    n: int
    k: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.k, int)):
            raise DomainError("n and k must be integers")
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if self.n < 2 * self.k:
            raise DomainError(f"need n >= 2k for diameter k, got n={self.n}, k={self.k}")
        try:
            float(self.num_vertices)
        except OverflowError:
            raise DomainError(
                f"C({self.n},{self.k}) overflows the binary64 range"
            ) from None

    @property
    def num_vertices(self) -> int:
        return math.comb(self.n, self.k)

    @property
    def degree(self) -> int:
        return self.k * (self.n - self.k)


@dataclass(frozen=True)
class DistancePartition:
    """Vertex ids grouped by distance from ``marked``.

    ``classes[l]`` holds the vertices whose subset meets the marked subset
    in exactly k-l elements, i.e. the vertices at graph distance l; class 0
    is the marked vertex alone and class sizes are C(k,l)*C(n-k,l).
    """

    params: GraphParams
    marked: int
    classes: tuple


def subset_mask(elements, params: GraphParams) -> int:
    """Bitmask of a k-subset given as an iterable of elements from 1..n."""
    mask = 0
    for e in elements:
        if not 1 <= e <= params.n:
            raise DomainError(f"element {e} outside 1..{params.n}")
        mask |= 1 << (e - 1)
    _check_mask(mask, params)
    return mask


def mask_elements(mask: int):
    """Sorted tuple of elements (1-based) present in a subset bitmask."""
    elems = []
    e = 1
    while mask:
        if mask & 1:
            elems.append(e)
        mask >>= 1
        e += 1
    return tuple(elems)


def _check_mask(mask: int, params: GraphParams):
    if mask <= 0 or mask >> params.n:
        raise DomainError(f"bitmask {mask:#x} has bits outside positions 1..{params.n}")
    if mask.bit_count() != params.k:
        raise DomainError(
            f"bitmask has {mask.bit_count()} elements, expected k={params.k}"
        )


def rank_subset(v: int, params: GraphParams) -> int:
    """Colexicographic rank of a subset bitmask, a bijection onto 0..N-1.

    For sorted elements c_1 < ... < c_k the rank is sum_i C(c_i - 1, i),
    so {1,...,k} ranks 0 and {n-k+1,...,n} ranks N-1.
    """
    _check_mask(v, params)
    rank = 0
    for i, c in enumerate(mask_elements(v), start=1):
        rank += math.comb(c - 1, i)
    return rank


def _largest_with_binomial_below(r: int, i: int, n: int) -> int:
    # largest c in [i, n] with C(c-1, i) <= r (monotone in c, so bisect)
    lo, hi = i, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if math.comb(mid - 1, i) <= r:
            lo = mid
        else:
            hi = mid - 1
    return lo


def unrank_subset(vid: int, params: GraphParams) -> int:
    """Inverse of :func:`rank_subset`: bitmask of the subset with the given id."""
    n_vert = params.num_vertices
    if not 0 <= vid < n_vert:
        raise DomainError(f"vertex id {vid} outside 0..{n_vert - 1}")
    mask = 0
    r = vid
    for i in range(params.k, 0, -1):
        c = _largest_with_binomial_below(r, i, params.n)
        r -= math.comb(c - 1, i)
        mask |= 1 << (c - 1)
    return mask


def vertex_elements(params: GraphParams, cap: int = DEFAULT_FULL_CAP) -> np.ndarray:
    """(N, k) array of sorted subset elements, row i = vertex id i."""
    n_vert = _check_cap(params, cap)
    out = np.empty((n_vert, params.k), dtype=np.int64)
    for vid in range(n_vert):
        out[vid, :] = mask_elements(unrank_subset(vid, params))
    return out


def _check_cap(params: GraphParams, cap: int) -> int:
    n_vert = params.num_vertices
    if n_vert > cap:
        raise CapacityError(
            f"J({params.n},{params.k}) has N={n_vert} vertices, above the "
            f"full-space cap {cap}"
        )
    return n_vert


def adjacency_matrix(params: GraphParams, cap: int = DEFAULT_FULL_CAP) -> np.ndarray:
    """Dense N x N 0/1 adjacency of J(n,k); rows sum to the degree k(n-k)."""
    elems = vertex_elements(params, cap)
    # 0/1 incidence rows; pairwise intersection sizes via one matmul.
    # Counts are small integers, so float64 comparison is exact.
    n_v, k = elems.shape
    inc = np.zeros((n_v, params.n), dtype=np.float64)
    inc[np.arange(n_v)[:, None], elems - 1] = 1.0
    common = inc @ inc.T
    return (common == float(k - 1)).astype(np.float64)


def distance_partition(
    params: GraphParams, w: int, cap: int = DEFAULT_FULL_CAP
) -> DistancePartition:
    """Partition all vertex ids by intersection size with the marked subset."""
    n_vert = _check_cap(params, cap)
    if not 0 <= w < n_vert:
        raise DomainError(f"marked vertex id {w} outside 0..{n_vert - 1}")
    w_mask = unrank_subset(w, params)
    classes = [[] for _ in range(params.k + 1)]
    for vid in range(n_vert):
        ell = params.k - (unrank_subset(vid, params) & w_mask).bit_count()
        classes[ell].append(vid)
    sizes = [len(c) for c in classes]
    expected = [
        math.comb(params.k, l) * math.comb(params.n - params.k, l)
        for l in range(params.k + 1)
    ]
    if sizes != expected:  # pragma: no cover - would indicate a rank/unrank bug
        raise AssertionError(f"class sizes {sizes} != {expected}")
    return DistancePartition(
        params=params,
        marked=w,
        classes=tuple(np.array(c, dtype=np.int64) for c in classes),
    )


def full_hamiltonian(
    params: GraphParams, gamma: float, w: int, cap: int = DEFAULT_FULL_CAP
) -> np.ndarray:
    """Search Hamiltonian -gamma*A - |w><w| on the full N-dimensional space."""
    return search_hamiltonian(adjacency_matrix(params, cap), gamma, w, overwrite_a=True)


def search_hamiltonian(
    a: np.ndarray, gamma: float, w: int, overwrite_a: bool = False
) -> np.ndarray:
    """-gamma*A - |w><w| from a dense adjacency A that is already built.

    With ``overwrite_a`` the result is formed in A's own buffer, which saves
    one N x N array; otherwise A is left unchanged.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise DomainError(f"gamma must be finite and positive, got {gamma}")
    n_vert = a.shape[0]
    if not 0 <= w < n_vert:
        raise DomainError(f"marked vertex id {w} outside 0..{n_vert - 1}")
    h = a if overwrite_a else a.copy()
    h *= -gamma
    h[w, w] -= 1.0
    return h
