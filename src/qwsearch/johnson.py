"""Exact construction of the Johnson graph J(n,k) in the full vertex space.

Vertices are the k-subsets of {1,...,n}, numbered by colexicographic rank;
:func:`rank_subset` and :func:`unrank_subset` convert single subsets, given
as bitmasks (bit i set means element i+1 is in the subset).  Two subsets
are adjacent when they share exactly k-1 elements, which makes J(n,k)
regular of degree k(n-k) with diameter k once n >= 2k.

The full-space constructors share one vectorised colex index per (n, k): the
sorted elements of every vertex, enumerated without a sort, and the colex
ranks of each vertex's k (k-1)-subsets, its "faces".  The faces are the
nonzeros of the inclusion matrix W in A = W^T W - kI: every face lies in
exactly n-k+1 vertices, and two vertices are adjacent exactly when they
share a face, so A is the union of the cliques on the faces.  The same
faces give A times the 0/1 indicators of the distance classes as exact
integers in O(N k^2), with no N x N array: that product is the partition
invariance check.

The dense N x N objects built here (adjacency, search Hamiltonian) exist
only as oracles for small instances, so they are guarded by a vertex cap;
everything asymptotic runs through the (k+1)-dimensional model in
:mod:`qwsearch.spectral`.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

# Dense N x N work stays affordable up to this many vertices: one N x N
# float64 matrix is 72 MB at the cap, and `validate` there (three dense
# eigensolves) takes about 20 s and peaks near 393 MB.  Overridable per
# call and via the CLI.
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


# A coupling is refused unless gamma*k(n-k+1) < 1e300.  That product is the
# largest entry of the shifted reduced matrix gamma*diag(lambda_0 - lambda_l)
# - p p^T, and it bounds gamma*||A|| = gamma*k(n-k).  So every matrix handed
# to sym_eig, full or reduced, has absolute row sums below 1e300 + k + 1, and
# no product in its gates (M V, V diag(values), their difference, the scale
# 1 + max|M|) nor the shift back by -gamma*lambda_0 comes near the binary64
# overflow at 1.8e308.
_COUPLING_BOUND = 1e300


def _check_coupling(params: GraphParams, gamma: float):
    if not (math.isfinite(gamma) and gamma > 0):
        raise DomainError(f"gamma must be finite and positive, got {gamma}")
    if not float(gamma) * (params.k * (params.n - params.k + 1)) < _COUPLING_BOUND:
        raise DomainError(
            f"gamma={gamma} too large for J({params.n},{params.k}): "
            f"gamma*k(n-k+1) must be below {_COUPLING_BOUND:g}"
        )


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


@dataclass(frozen=True)
class _ColexIndex:
    # elems[v]: sorted elements of vertex v; faces[v, i]: colex rank (among
    # the (k-1)-subsets) of elems[v] without its i-th element.  The faces
    # are the nonzeros of the inclusion matrix W with A = W^T W - kI.
    params: GraphParams
    elems: np.ndarray
    faces: np.ndarray


def _colex_index(params: GraphParams, cap: int) -> _ColexIndex:
    n_vert = _check_cap(params, cap)
    n, k = params.n, params.k
    # s -> n+1-s maps colex order onto reversed lex order, the order in
    # which itertools.combinations emits the images.
    lex = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(1, n + 1), k)),
        dtype=np.int64,
        count=n_vert * k,
    ).reshape(n_vert, k)
    elems = (n + 1) - lex[::-1, ::-1]
    # binom[a, b] = C(a, b) for a < n, b <= k by Pascal's rule: column b is
    # the exclusive running sum of column b-1.  Every entry is at most N.
    binom = np.zeros((n, k + 1), dtype=np.int64)
    binom[:, 0] = 1
    for b in range(1, k + 1):
        np.cumsum(binom[:-1, b - 1], out=binom[1:, b])
    # Dropping c_i leaves C(c_j - 1, j + 1) for j < i (c_j keeps its place)
    # and C(c_j - 1, j) for j > i (c_j moves down one place), 0-based j:
    # face_i = sum_j shift_j + sum_{j <= i} (keep_j - shift_j) - keep_i.
    pos = np.arange(k)
    keep = binom[elems - 1, pos + 1]
    shift = binom[elems - 1, pos]
    faces = np.cumsum(keep - shift, axis=1)
    faces += shift.sum(axis=1, keepdims=True) - keep
    return _ColexIndex(params=params, elems=elems, faces=faces)


def vertex_elements(params: GraphParams, cap: int = DEFAULT_FULL_CAP) -> np.ndarray:
    """(N, k) array of sorted subset elements, row i = vertex id i."""
    return _colex_index(params, cap).elems


def _check_vertex(w: int, n_vert: int):
    if not 0 <= w < n_vert:
        raise DomainError(f"marked vertex id {w} outside 0..{n_vert - 1}")


def _check_cap(params: GraphParams, cap: int) -> int:
    n_vert = params.num_vertices
    if n_vert > cap:
        raise CapacityError(
            f"J({params.n},{params.k}) has N={n_vert} vertices, above the "
            f"full-space cap {cap}"
        )
    return n_vert


def _adjacency(index: _ColexIndex, weight: float = 1.0) -> np.ndarray:
    # Two vertices are adjacent iff they share exactly one face, so A is the
    # union of the cliques on each face's n-k+1 supersets, minus the diagonal.
    # The edges get ``weight``, so -gamma*A is written in the same scatter.
    n_vert, k = index.elems.shape
    order = np.argsort(index.faces, axis=None, kind="stable")
    members = (order // k).reshape(-1, index.params.n - k + 1)
    a = np.zeros((n_vert, n_vert), dtype=np.float64)
    a[members[:, :, None], members[:, None, :]] = weight
    np.fill_diagonal(a, 0.0)
    return a


def adjacency_matrix(params: GraphParams, cap: int = DEFAULT_FULL_CAP) -> np.ndarray:
    """Dense N x N 0/1 adjacency of J(n,k); rows sum to the degree k(n-k)."""
    return _adjacency(_colex_index(params, cap))


def _distance_labels(index: _ColexIndex, w: int) -> np.ndarray:
    # label[v] = k - |v & w|, the graph distance of v from w.
    params = index.params
    _check_vertex(w, len(index.elems))
    in_w = np.zeros(params.n + 1, dtype=np.int64)
    in_w[index.elems[w]] = 1
    label = params.k - in_w[index.elems].sum(axis=1)
    sizes = np.bincount(label, minlength=params.k + 1).tolist()
    expected = [
        math.comb(params.k, l) * math.comb(params.n - params.k, l)
        for l in range(params.k + 1)
    ]
    if sizes != expected:  # pragma: no cover - would indicate an indexing bug
        raise AssertionError(f"class sizes {sizes} != {expected}")
    return label


def _distance_partition(index: _ColexIndex, w: int) -> DistancePartition:
    label = _distance_labels(index, w)
    classes = tuple(
        np.flatnonzero(label == l).astype(np.int64, copy=False)
        for l in range(index.params.k + 1)
    )
    return DistancePartition(params=index.params, marked=w, classes=classes)


def _class_image(index: _ColexIndex, label: np.ndarray) -> np.ndarray:
    # Rows A|nu_l> for the 0/1 indicators nu_l of the classes label == l,
    # l = 0..k, as exact int64, without A.  With A = W^T W - kI, entry v of
    # W^T W |nu_l> counts, over v's k faces, the members of class l on that
    # face; one bincount gives those counts for every (face, class) pair.
    n_vert, k = index.faces.shape
    n_faces = math.comb(index.params.n, k - 1)
    counts = np.bincount(
        (label * n_faces + index.faces.T).ravel(), minlength=(k + 1) * n_faces
    ).reshape(k + 1, n_faces)
    image = counts[:, index.faces].sum(axis=2)
    image[label, np.arange(n_vert)] -= k
    return image


def distance_partition(
    params: GraphParams, w: int, cap: int = DEFAULT_FULL_CAP
) -> DistancePartition:
    """Partition all vertex ids by intersection size with the marked subset."""
    return _distance_partition(_colex_index(params, cap), w)


def full_hamiltonian(
    params: GraphParams, gamma: float, w: int, cap: int = DEFAULT_FULL_CAP
) -> np.ndarray:
    """Search Hamiltonian -gamma*A - |w><w| on the full N-dimensional space.

    The coupling and the marked vertex are checked before anything is
    built, and H is written in one pass: -gamma on the edges by the
    adjacency's clique scatter, then -1 at [w, w].  The call allocates one
    N x N array, and the zeros of H are +0.0.
    """
    _check_coupling(params, gamma)
    _check_vertex(w, params.num_vertices)
    h = _adjacency(_colex_index(params, cap), -gamma)
    h[w, w] = -1.0
    return h


def _search_hamiltonian(a: np.ndarray, gamma: float, w: int) -> np.ndarray:
    # Forms -gamma*A - |w><w| in A's own buffer and returns it; A is gone
    # afterwards.  gamma and w are checked by the caller.
    a *= -gamma
    a[w, w] -= 1.0
    return a


def _move_mark(h: np.ndarray, w: int, w2: int) -> np.ndarray:
    # Turns the search Hamiltonian marked at w into the one marked at w2, in
    # place; w2 is checked by the caller.  H[w, w] ends as +0.0 where
    # _search_hamiltonian leaves -0.0, which changes no product.  w == w2
    # leaves H as it was.
    h[w, w] += 1.0
    h[w2, w2] -= 1.0
    return h
