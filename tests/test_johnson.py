import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwsearch as qw
from qwsearch import johnson
from qwsearch.errors import CapacityError, DomainError


def colex_subsets(n, k):
    """Independent enumeration oracle: k-subsets in colexicographic order."""
    return sorted(itertools.combinations(range(1, n + 1), k), key=lambda c: c[::-1])


def brute_adjacency(n, k):
    """Adjacency by direct pairwise intersection counting over the oracle order."""
    subsets = [set(c) for c in colex_subsets(n, k)]
    m = len(subsets)
    a = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j and len(subsets[i] & subsets[j]) == k - 1:
                a[i, j] = 1.0
    return a


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (6, 3), (9, 4), (12, 5)])
def test_smallest_subset_ranks_zero(n, k):
    params = qw.GraphParams(n, k)
    mask = qw.subset_mask(range(1, k + 1), params)
    assert qw.rank_subset(mask, params) == 0
    assert qw.unrank_subset(0, params) == mask


def test_rank_matches_enumeration_oracle():
    params = qw.GraphParams(6, 3)
    for vid, combo in enumerate(colex_subsets(6, 3)):
        assert qw.rank_subset(qw.subset_mask(combo, params), params) == vid
    # two spot values frozen from the oracle
    assert qw.rank_subset(qw.subset_mask((4, 5, 6), params), params) == 19
    assert qw.rank_subset(qw.subset_mask((1, 2, 4), params), params) == 1


def test_unrank_examples():
    params = qw.GraphParams(6, 3)
    assert qw.mask_elements(qw.unrank_subset(19, params)) == (4, 5, 6)
    params42 = qw.GraphParams(4, 2)
    assert qw.mask_elements(qw.unrank_subset(5, params42)) == (3, 4)


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (6, 3), (12, 3), (16, 2), (10, 5), (14, 7)])
def test_rank_unrank_exhaustive(n, k):
    params = qw.GraphParams(n, k)
    oracle = colex_subsets(n, k)
    assert params.num_vertices == len(oracle)
    for vid, combo in enumerate(oracle):
        mask = qw.unrank_subset(vid, params)
        assert qw.mask_elements(mask) == combo
        assert qw.rank_subset(mask, params) == vid


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rank_unrank_roundtrip_property(data):
    k = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(2 * k, 18))
    params = qw.GraphParams(n, k)
    vid = data.draw(st.integers(0, params.num_vertices - 1))
    assert qw.rank_subset(qw.unrank_subset(vid, params), params) == vid


def test_rank_input_errors():
    params = qw.GraphParams(6, 3)
    with pytest.raises(DomainError):
        qw.rank_subset(0b11, params)  # popcount 2 != 3
    with pytest.raises(DomainError):
        qw.rank_subset(1 << 6 | 0b11, params)  # bit for element 7
    with pytest.raises(DomainError):
        qw.rank_subset(0, params)
    with pytest.raises(DomainError):
        qw.unrank_subset(20, params)
    with pytest.raises(DomainError):
        qw.unrank_subset(-1, params)
    with pytest.raises(DomainError):
        qw.subset_mask((0, 1, 2), params)


def test_graph_params_validation():
    with pytest.raises(DomainError):
        qw.GraphParams(3, 2)  # n < 2k
    with pytest.raises(DomainError):
        qw.GraphParams(5, 0)
    with pytest.raises(DomainError):
        qw.GraphParams(5.0, 2)
    with pytest.raises(DomainError, match="overflows"):
        qw.GraphParams(3000, 1000)  # C(3000,1000) is about 1e823
    assert qw.GraphParams(6, 3).num_vertices == 20
    assert qw.GraphParams(6, 3).degree == 9


def test_adjacency_complete_graph():
    a = qw.adjacency_matrix(qw.GraphParams(2, 1))
    assert np.array_equal(a, np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("n,k", [(6, 3), (8, 2), (9, 4), (12, 1)])
def test_adjacency_regularity(n, k):
    a = qw.adjacency_matrix(qw.GraphParams(n, k))
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0.0)
    assert np.all(a.sum(axis=1) == k * (n - k))


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (7, 3)])
def test_adjacency_against_bruteforce(n, k):
    a = qw.adjacency_matrix(qw.GraphParams(n, k))
    assert np.array_equal(a, brute_adjacency(n, k))


def test_octahedron():
    # J(4,2): 6 vertices, 4-regular, each vertex non-adjacent only to its
    # complementary pair
    params = qw.GraphParams(4, 2)
    a = qw.adjacency_matrix(params)
    assert a.shape == (6, 6)
    assert np.all(a.sum(axis=1) == 4)
    for vid in range(6):
        mask = qw.unrank_subset(vid, params)
        comp = qw.rank_subset(0b1111 ^ mask, params)
        assert a[vid, comp] == 0.0


def test_capacity_errors_name_the_cap():
    with pytest.raises(CapacityError, match="3003"):
        qw.adjacency_matrix(qw.GraphParams(40, 4))
    with pytest.raises(CapacityError, match="cap 10"):
        qw.adjacency_matrix(qw.GraphParams(6, 3), cap=10)


@pytest.mark.parametrize(
    "n,k,sizes", [(6, 3, (1, 9, 9, 1)), (4, 2, (1, 4, 1)), (8, 2, (1, 12, 15))]
)
def test_distance_partition_sizes(n, k, sizes):
    params = qw.GraphParams(n, k)
    part = qw.distance_partition(params, 0)
    assert tuple(len(c) for c in part.classes) == sizes
    assert sizes == tuple(
        math.comb(k, l) * math.comb(n - k, l) for l in range(k + 1)
    )
    assert list(part.classes[0]) == [0]
    combined = np.sort(np.concatenate(part.classes))
    assert np.array_equal(combined, np.arange(params.num_vertices))


def test_distance_partition_arbitrary_marked():
    for n, k, w in ((6, 3, 13), (8, 4, 69), (70, 2, 2000), (14, 6, 1500), (3003, 1, 1234)):
        params = qw.GraphParams(n, k)
        part = qw.distance_partition(params, w)
        assert list(part.classes[0]) == [w]
        w_mask = qw.unrank_subset(w, params)
        for ell, ids in enumerate(part.classes):
            assert ids.dtype == np.int64
            assert np.all(np.diff(ids) > 0)
            for vid in ids:
                inter = (qw.unrank_subset(int(vid), params) & w_mask).bit_count()
                assert inter == params.k - ell
        with pytest.raises(DomainError):
            qw.distance_partition(params, params.num_vertices)


@pytest.mark.parametrize("n,k", [(2, 1), (5, 1), (6, 3), (8, 4), (9, 2), (11, 5)])
def test_colex_faces_are_ranks_of_the_k_minus_1_subsets(n, k):
    params = qw.GraphParams(n, k)
    index = johnson._colex_index(params, qw.DEFAULT_FULL_CAP)
    face_rank = {c: r for r, c in enumerate(colex_subsets(n, k - 1))}
    for v, elems in enumerate(index.elems):
        expected = [face_rank[tuple(np.delete(elems, i))] for i in range(k)]
        assert list(index.faces[v]) == expected


@pytest.mark.parametrize("n,k", [(4, 2), (7, 3), (9, 4), (12, 2)])
def test_adjacency_is_the_inclusion_identity(n, k):
    # A = W^T W - kI, with W the C(n,k-1) x N face-vertex inclusion matrix
    params = qw.GraphParams(n, k)
    index = johnson._colex_index(params, qw.DEFAULT_FULL_CAP)
    n_vert = params.num_vertices
    incl = np.zeros((math.comb(n, k - 1), n_vert))
    incl[index.faces, np.arange(n_vert)[:, None]] = 1.0
    assert np.all(incl.sum(axis=0) == k) and np.all(incl.sum(axis=1) == n - k + 1)
    assert np.array_equal(incl.T @ incl - k * np.eye(n_vert), qw.adjacency_matrix(params))


@pytest.mark.parametrize("n,k,w", [
    (2, 1, 0), (6, 3, 0), (8, 2, 0), (9, 4, 17), (78, 2, 0), (3003, 1, 0), (14, 6, 100),
])
def test_class_image_from_the_faces_is_the_dense_product(n, k, w):
    params = qw.GraphParams(n, k)
    index = johnson._colex_index(params, qw.DEFAULT_FULL_CAP)
    label = johnson._distance_labels(index, w)
    indicators = (label == np.arange(k + 1)[:, None]).astype(np.float64)
    image = johnson._class_image(index, label)
    assert image.dtype == np.int64
    assert np.array_equal(image, indicators @ qw.adjacency_matrix(params).T)


def test_full_hamiltonian_allocates_one_matrix():
    # -gamma is written by the clique scatter itself: no second pass, no copy
    params = qw.GraphParams(14, 6)
    gamma = qw.gamma_star(params)
    qw.full_hamiltonian(params, gamma, 100)  # warm-up: first-call caches are not counted
    tracemalloc.start()
    try:
        h = qw.full_hamiltonian(params, gamma, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 8 * params.num_vertices**2
    expected = -gamma * qw.adjacency_matrix(params)
    expected[100, 100] -= 1.0
    assert np.array_equal(h, expected)


def test_full_hamiltonian_k2():
    h = qw.full_hamiltonian(qw.GraphParams(2, 1), 1.0, 0)
    assert np.array_equal(h, np.array([[-1.0, -1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("n,k,gamma,w", [(6, 3, 0.5, 0), (6, 3, 0.1075, 7), (4, 2, 2.0, 5)])
def test_full_hamiltonian_structure(n, k, gamma, w):
    params = qw.GraphParams(n, k)
    h = qw.full_hamiltonian(params, gamma, w)
    assert np.trace(h) == -1.0  # adjacency has zero diagonal
    diff = h + gamma * qw.adjacency_matrix(params)
    expected = np.zeros_like(diff)
    expected[w, w] = -1.0
    assert np.array_equal(diff, expected)


def test_full_hamiltonian_errors():
    params = qw.GraphParams(6, 3)
    with pytest.raises(DomainError):
        qw.full_hamiltonian(params, 0.0, 0)
    with pytest.raises(DomainError):
        qw.full_hamiltonian(params, -1.0, 0)
    with pytest.raises(DomainError):
        qw.full_hamiltonian(params, 1.0, 20)


@pytest.mark.parametrize("n,k,gamma,w,w2", [
    (2, 1, 0.25, 1, 0),  # the wrap w = N-1 -> w2 = 0 of validate_instance
    (6, 3, 0.1075, 19, 0),
    (6, 3, 0.5, 7, 3),
    (8, 2, 0.03, 27, 0),
    (9, 4, 0.02, 17, 18),
    (12, 4, 0.01, 200, 7),
])
def test_moving_the_mark_matches_a_fresh_build(n, k, gamma, w, w2):
    params = qw.GraphParams(n, k)
    h = johnson._move_mark(qw.full_hamiltonian(params, gamma, w), w, w2)
    assert np.array_equal(h, qw.full_hamiltonian(params, gamma, w2))


def test_search_hamiltonian_is_formed_in_the_adjacency_buffer():
    params = qw.GraphParams(6, 3)
    a = qw.adjacency_matrix(params)
    h = johnson._search_hamiltonian(a, 0.5, 4)
    assert np.shares_memory(h, a)
    assert np.array_equal(h, qw.full_hamiltonian(params, 0.5, 4))


def test_mask_helpers_roundtrip():
    params = qw.GraphParams(9, 4)
    elems = (2, 3, 7, 9)
    assert qw.mask_elements(qw.subset_mask(elems, params)) == elems
