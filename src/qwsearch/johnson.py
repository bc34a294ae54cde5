"""Exact construction of the Johnson graph J(n,k) in the full vertex space.

Vertices are the k-subsets of {1,...,n}, numbered by colexicographic rank:
row v of :func:`vertex_elements` holds the sorted elements of vertex v, so
{1,...,k} is vertex 0 and {n-k+1,...,n} is vertex N-1.  Two subsets are
adjacent when they share exactly k-1 elements, which makes J(n,k)
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

The index is memoised per process for the last few (n, k) and its arrays
are read-only; the vertex cap is checked on every call, before the memo is
consulted.  It carries the clique edges, the sorted flat positions of the
off-diagonal nonzeros of A, built only when a dense builder first asks for
them, so every dense matrix is one flat scatter into a fresh array owned
by the caller, and the O(N k) users (vertex elements, distance partition,
partition invariance) never build them.

The dense N x N objects built here (adjacency, search Hamiltonian) exist
only as oracles for small instances, so they are guarded by a vertex cap;
everything asymptotic runs through the (k+1)-dimensional model in
:mod:`qwsearch.spectral`.  The parameters (n, k), the cap's default and
the argument checks live in :mod:`qwsearch.domain`, which imports no
numpy; the full space built here needs it.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import DEFAULT_FULL_CAP, GraphParams, _check_coupling, _int
from .errors import CapacityError

# Colex indices kept per process, least recently used dropped first.  A
# caller cycling through more instances than this rebuilds each one.
_INDEX_MEMO_SIZE = 8


@dataclass(frozen=True)
class DistancePartition:
    """Vertex ids grouped by graph distance from the marked vertex.

    ``classes[l]`` holds the vertices whose subset meets the marked subset
    in exactly k-l elements, i.e. the vertices at graph distance l; class 0
    is the marked vertex alone and class sizes are C(k,l)*C(n-k,l).
    """

    classes: tuple


@dataclass(frozen=True)
class _ColexIndex:
    # elems[v]: sorted elements of vertex v; faces[v, i]: colex rank (among
    # the (k-1)-subsets) of elems[v] without its i-th element.  The faces
    # are the nonzeros of the inclusion matrix W with A = W^T W - kI.  Every
    # array is int64, numpy's index type, and read-only: one index is shared
    # by all callers in the process.
    params: GraphParams
    elems: np.ndarray
    faces: np.ndarray

    @functools.cached_property
    def edges(self) -> np.ndarray:
        # Flat positions i*N + j of the off-diagonal nonzeros of A, ascending.
        # Two vertices are adjacent iff they share exactly one face, so A is
        # the union of the cliques on each face's n-k+1 supersets, minus the
        # diagonal, and every edge lies in one clique only.  Built on first
        # use, so the O(N k) callers never pay its N k(n-k) entries; the
        # result is allocated before the temporaries, which then leave no
        # hole under it when they are freed.
        n_vert, k = self.elems.shape
        size = self.params.n - k + 1
        n_faces = math.comb(self.params.n, k - 1)
        edges = np.empty((n_faces, size * (size - 1)), dtype=np.int64)
        members = (np.argsort(self.faces, axis=None, kind="stable") // k).reshape(-1, size)
        pairs = (members * n_vert)[:, :, None] + members[:, None, :]
        off_diagonal = ~np.eye(size, dtype=bool).ravel()
        np.compress(off_diagonal, pairs.reshape(n_faces, -1), axis=1, out=edges)
        edges = edges.reshape(-1)
        edges.sort()
        edges.flags.writeable = False
        return edges


def _colex_index(params: GraphParams, cap: int) -> _ColexIndex:
    # The cap is checked on every call, so a memoised index never lets a
    # smaller cap through.
    cap = _int(cap, "cap")
    if params.num_vertices > cap:
        raise CapacityError(
            f"J({params.n},{params.k}) has N={params.num_vertices} vertices, "
            f"above the full-space cap {cap}"
        )
    return _memo_colex_index(params)


@functools.lru_cache(maxsize=_INDEX_MEMO_SIZE)
def _memo_colex_index(params: GraphParams) -> _ColexIndex:
    n, k = params.n, params.k
    # s -> n+1-s maps colex order onto reversed lex order, the order in
    # which itertools.combinations emits the images.
    lex = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(1, n + 1), k)),
        dtype=np.int64,
        count=params.num_vertices * k,
    ).reshape(-1, k)
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
    elems.flags.writeable = False
    faces.flags.writeable = False
    return _ColexIndex(params=params, elems=elems, faces=faces)


def vertex_elements(params: GraphParams, cap: int = DEFAULT_FULL_CAP) -> np.ndarray:
    """(N, k) int64 array of sorted subset elements, row i = vertex id i.

    The result is the caller's own writable copy of the shared index.
    """
    return _colex_index(params, cap).elems.copy()


def _adjacency(index: _ColexIndex, weight: float = 1.0) -> np.ndarray:
    # One flat scatter of ``weight`` on the edges into a fresh zero matrix,
    # so -gamma*A is written in the same pass; the diagonal stays +0.0.
    n_vert = len(index.elems)
    a = np.zeros((n_vert, n_vert), dtype=np.float64)
    a.reshape(-1)[index.edges] = weight
    return a


def adjacency_matrix(params: GraphParams, cap: int = DEFAULT_FULL_CAP) -> np.ndarray:
    """Dense N x N 0/1 adjacency of J(n,k); rows sum to the degree k(n-k)."""
    return _adjacency(_colex_index(params, cap))


def _class_sizes(params: GraphParams) -> list:
    # |class l| = C(k,l)*C(n-k,l): l elements of w swapped for l outside it.
    return [
        math.comb(params.k, l) * math.comb(params.n - params.k, l)
        for l in range(params.k + 1)
    ]


def _distance_labels(index: _ColexIndex, w: int) -> np.ndarray:
    # label[v] = k - |v & w|, the graph distance of v from w, a checked mark.
    params = index.params
    in_w = np.zeros(params.n + 1, dtype=np.int64)
    in_w[index.elems[w]] = 1
    label = params.k - in_w[index.elems].sum(axis=1)
    sizes = np.bincount(label, minlength=params.k + 1).tolist()
    expected = _class_sizes(params)
    if sizes != expected:  # pragma: no cover - would indicate an indexing bug
        raise AssertionError(f"class sizes {sizes} != {expected}")
    return label


def _class_image(index: _ColexIndex, label: np.ndarray) -> np.ndarray:
    # Rows A|nu_l> for the 0/1 indicators nu_l of the classes label == l,
    # l = 0..k, as exact int64, without A.  With A = W^T W - kI, entry v of
    # W^T W |nu_l> counts, over v's k faces, the members of class l on that
    # face; one bincount gives those counts for every (face, class) pair.
    # The counts are gathered one face position at a time, so the temporary
    # is (k+1) x N, the size of the image, not (k+1) x N x k.
    n_vert, k = index.faces.shape
    n_faces = math.comb(index.params.n, k - 1)
    faces = index.faces.T
    counts = np.bincount(
        (label * n_faces + faces).ravel(), minlength=(k + 1) * n_faces
    ).reshape(k + 1, n_faces)
    image = counts[:, faces[0]]
    for position in faces[1:]:
        image += counts[:, position]
    image[label, np.arange(n_vert)] -= k
    return image


def distance_partition(
    params: GraphParams, w: int, cap: int = DEFAULT_FULL_CAP
) -> DistancePartition:
    """Partition all vertex ids by intersection size with the marked subset."""
    index = _colex_index(params, cap)
    w = _int(w, "marked vertex w", 0, params.num_vertices - 1)
    label = _distance_labels(index, w)
    # One stable sort groups the ids by class, ascending within each, and
    # the checked class sizes split it.
    order = np.argsort(label, kind="stable")
    classes = tuple(np.split(order, np.cumsum(_class_sizes(params))[:-1]))
    return DistancePartition(classes=classes)


def full_hamiltonian(
    params: GraphParams, gamma: float, w: int, cap: int = DEFAULT_FULL_CAP
) -> np.ndarray:
    """Search Hamiltonian -gamma*A - |w><w| on the full N-dimensional space.

    The coupling and the marked vertex are checked before anything is
    built, and H is written in one pass: -gamma on the edges by the
    adjacency's flat scatter, then -1 at [w, w].  The call allocates one
    N x N array, and the zeros of H are +0.0.
    """
    gamma = _check_coupling(params, gamma)
    w = _int(w, "marked vertex w", 0, params.num_vertices - 1)
    h = _adjacency(_colex_index(params, cap), -gamma)
    h[w, w] = -1.0
    return h

