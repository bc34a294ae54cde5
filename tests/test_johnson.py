import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwsearch as qw
from qwsearch import johnson
from qwsearch.errors import CapacityError, DomainError
from qwsearch.johnson import vertex_elements


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


def vertex_ids(params):
    """Each vertex's k-subset, as a tuple, mapped to its colex rank."""
    elems = johnson.vertex_elements(params, cap=params.num_vertices)
    return {tuple(row): vid for vid, row in enumerate(elems.tolist())}


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (6, 3), (9, 4), (12, 5)])
def test_smallest_subset_ranks_zero(n, k):
    params = qw.GraphParams(n, k)
    elems = johnson.vertex_elements(params, cap=params.num_vertices)
    assert tuple(elems[0]) == tuple(range(1, k + 1))
    assert vertex_ids(params)[tuple(range(1, k + 1))] == 0


def test_rank_matches_enumeration_oracle():
    params = qw.GraphParams(6, 3)
    ids = vertex_ids(params)
    for vid, combo in enumerate(colex_subsets(6, 3)):
        assert ids[combo] == vid
    # two spot values frozen from the oracle
    assert ids[(4, 5, 6)] == 19
    assert ids[(1, 2, 4)] == 1


def test_unrank_examples():
    assert tuple(johnson.vertex_elements(qw.GraphParams(6, 3))[19]) == (4, 5, 6)
    assert tuple(johnson.vertex_elements(qw.GraphParams(4, 2))[5]) == (3, 4)


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (6, 3), (12, 3), (16, 2), (10, 5), (14, 7)])
def test_rank_unrank_exhaustive(n, k):
    # J(14,7) has N = 3432, above the default cap
    params = qw.GraphParams(n, k)
    oracle = colex_subsets(n, k)
    assert params.num_vertices == len(oracle)
    elems = johnson.vertex_elements(params, cap=len(oracle))
    assert elems.shape == (len(oracle), k)
    assert [tuple(row) for row in elems.tolist()] == oracle
    ids = vertex_ids(params)
    assert [ids[combo] for combo in oracle] == list(range(len(oracle)))


def test_graph_params_validation():
    with pytest.raises(DomainError):
        qw.GraphParams(3, 2)  # n < 2k
    with pytest.raises(DomainError):
        qw.GraphParams(5, 0)
    with pytest.raises(DomainError):
        qw.GraphParams(5.0, 2)
    with pytest.raises(DomainError, match="overflows"):
        qw.GraphParams(3000, 1000)  # C(3000,1000) is about 1e823
    with pytest.raises(DomainError, match="overflows"):
        qw.GraphParams(10**15, 10**6)  # refused before the exact C(n,k)
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
    subsets = [set(c) for c in colex_subsets(4, 2)]
    for vid, subset in enumerate(subsets):
        comp = subsets.index({1, 2, 3, 4} - subset)
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
        subsets = [set(c) for c in colex_subsets(n, k)]
        for ell, ids in enumerate(part.classes):
            assert ids.dtype == np.int64
            assert np.all(np.diff(ids) > 0)
            for vid in ids:
                assert len(subsets[vid] & subsets[w]) == params.k - ell
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


def assert_full_hamiltonian_allocates_one_matrix(n, k):
    # -gamma is written by the clique scatter itself: no second pass, no copy
    params = qw.GraphParams(n, k)
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


def test_full_hamiltonian_allocates_one_matrix():
    assert_full_hamiltonian_allocates_one_matrix(13, 6)  # 23.6 MB, from np.empty
    assert_full_hamiltonian_allocates_one_matrix(14, 6)  # 72.1 MB, from np.zeros


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


def clique_scatter(index, weight=1.0):
    """The dense builder the edge list replaced, kept as its oracle: every
    face's clique in one 2-D fancy-index scatter, then a zero diagonal."""
    n_vert, k = index.faces.shape
    order = np.argsort(index.faces, axis=None, kind="stable")
    members = (order // k).reshape(-1, index.params.n - k + 1)
    a = np.zeros((n_vert, n_vert), dtype=np.float64)
    a[members[:, :, None], members[:, None, :]] = weight
    np.fill_diagonal(a, 0.0)
    return a


def assert_dense_builders_match_the_clique_scatter(n, k, gamma, w):
    params = qw.GraphParams(n, k)
    index = johnson._colex_index(params, params.num_vertices)
    assert qw.adjacency_matrix(params, params.num_vertices).tobytes() == (
        clique_scatter(index).tobytes()
    )
    expected = clique_scatter(index, -gamma)
    expected[w, w] = -1.0
    h = qw.full_hamiltonian(params, gamma, w, params.num_vertices)
    assert h.tobytes() == expected.tobytes()  # bit for bit, signs of zero included


@pytest.mark.parametrize("n,k,w", [
    (2, 1, 1), (5, 1, 3), (3003, 1, 1234),  # k = 1: the complete graph
    (4, 2, 5), (6, 3, 0), (8, 4, 69), (10, 5, 251),  # n = 2k
    (14, 6, 1500), (16, 3, 559),
])
def test_dense_builders_match_the_clique_scatter(n, k, w):
    assert_dense_builders_match_the_clique_scatter(n, k, 0.1075, w)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_dense_builders_match_the_clique_scatter_property(data):
    k = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(2 * k, 2 * k + 6).filter(lambda n: math.comb(n, k) <= 1000))
    w = data.draw(st.integers(0, math.comb(n, k) - 1))
    gamma = data.draw(st.floats(1e-12, 1e6) | st.sampled_from([5e-324, 1.0, 0.1075]))
    assert_dense_builders_match_the_clique_scatter(n, k, gamma, w)


def record_scatters(monkeypatch):
    """The threads that call johnson._scatter, in call order."""
    scatter = johnson._scatter
    threads = []

    def recording(flat, positions, weight):
        threads.append(threading.current_thread())
        scatter(flat, positions, weight)

    monkeypatch.setattr(johnson, "_scatter", recording)
    return threads


def force_regime(monkeypatch, regime, cpus=2):
    """Every build below in one of _adjacency's three regimes, at any size."""
    huge = 1 << 62
    zero_bytes, split_bytes = {"single": (huge, huge), "band": (0, huge), "split": (0, 0)}[regime]
    monkeypatch.setattr(johnson, "_ZERO_BYTES", zero_bytes)
    monkeypatch.setattr(johnson, "_SPLIT_BYTES", split_bytes)
    monkeypatch.setattr(johnson, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("n,k,w", [(6, 3, 7), (9, 4, 100), (16, 3, 559), (3003, 1, 1234)])
def test_the_split_scatter_writes_the_single_scatters_bytes(monkeypatch, n, k, w):
    params = qw.GraphParams(n, k)
    caller = threading.current_thread()
    threads = record_scatters(monkeypatch)
    for regime, build in itertools.product(("band", "split"), (
        lambda: qw.adjacency_matrix(params),
        lambda: qw.full_hamiltonian(params, 0.1075, w),
    )):
        force_regime(monkeypatch, "single")
        single = build().tobytes()
        assert threads == [caller]
        force_regime(monkeypatch, regime)
        split = build()
        assert len(threads) == 3 and threads[1:].count(caller) == 1
        assert split.tobytes() == single  # +0.0 zeros and -1 at [w, w] included
        threads.clear()
    assert split[w, w] == -1.0 and not np.signbit(split[split == 0.0]).any()


@pytest.mark.parametrize("n,k,w", [(9, 4, 100), (16, 3, 559), (13, 6, 1000), (3003, 1, 1234)])
def test_the_band_zeroes_memory_that_is_not_zero(monkeypatch, n, k, w):
    # Fresh pages read zero anyway; an allocation that hands back used
    # memory, here all bytes 0xff (a NaN in float64), shows a half that was
    # never zeroed.
    params = qw.GraphParams(n, k)
    force_regime(monkeypatch, "single")
    single = qw.full_hamiltonian(params, 0.1075, w).tobytes()
    empty = np.empty

    def dirty_empty(*args, **kwargs):
        a = empty(*args, **kwargs)
        a.reshape(-1).view(np.uint8).fill(0xFF)
        return a

    monkeypatch.setattr(np, "empty", dirty_empty)
    force_regime(monkeypatch, "band")
    assert qw.full_hamiltonian(params, 0.1075, w).tobytes() == single


@pytest.mark.parametrize("raiser", ["helper", "caller"])
def test_an_error_in_either_half_reaches_the_caller_after_the_join(monkeypatch, raiser):
    caller = threading.current_thread()
    force_regime(monkeypatch, "band")
    threads = record_scatters(monkeypatch)
    for stage in ("zero", "scatter"):
        threads.clear()
        name = "_" + stage
        original = getattr(johnson, name)

        def failing(*args):
            original(*args)
            if (threading.current_thread() is caller) == (raiser == "caller"):
                raise MemoryError(raiser)

        monkeypatch.setattr(johnson, name, failing)
        with pytest.raises(MemoryError, match=raiser):
            qw.full_hamiltonian(qw.GraphParams(9, 4), 0.5, 3)
        monkeypatch.setattr(johnson, name, original)
        helpers = [t for t in threads if t is not caller]
        # a half whose zeroing failed is never scattered
        assert len(threads) == (2 if stage == "scatter" else 1)
        assert len(helpers) == (1 if stage == "scatter" or raiser == "caller" else 0)
        assert not any(t.name == "qwsearch-scatter" for t in threading.enumerate())


def test_the_split_path_keeps_the_dense_contracts(monkeypatch):
    # J(13,6)'s 23.6 MB (the band) and J(14,6)'s 72.1 MB (the split into
    # np.zeros) are above _ZERO_BYTES, so with two CPUs every build is split
    monkeypatch.setattr(johnson, "_usable_cpus", lambda: 2)
    caller = threading.current_thread()
    threads = record_scatters(monkeypatch)
    for n, k in ((13, 6), (14, 6)):
        assert_full_hamiltonian_allocates_one_matrix(n, k)
        assert_dense_builders_match_the_clique_scatter(n, k, 0.1075, 1500)
        assert len(threads) == 10 and threads.count(caller) == 5
        threads.clear()


def test_below_the_size_rule_one_thread_scatters(monkeypatch):
    params = qw.GraphParams(12, 5)  # 5.0 MB
    assert 8 * params.num_vertices**2 < johnson._ZERO_BYTES
    monkeypatch.setattr(johnson, "_usable_cpus", lambda: 2)
    threads = record_scatters(monkeypatch)
    qw.full_hamiltonian(params, 0.5, 0)
    assert threads == [threading.current_thread()]


@pytest.mark.parametrize("n,k", [(13, 6), (14, 6)])
def test_one_usable_cpu_scatters_on_the_caller_into_zeros(monkeypatch, n, k):
    params = qw.GraphParams(n, k)
    monkeypatch.setattr(johnson, "_usable_cpus", lambda: 1)
    threads = record_scatters(monkeypatch)
    monkeypatch.setattr(johnson, "_zero", None)  # never called
    h = qw.full_hamiltonian(params, 0.5, 0)
    assert threads == [threading.current_thread()]
    monkeypatch.undo()
    assert h.tobytes() == qw.full_hamiltonian(params, 0.5, 0).tobytes()


def test_the_helper_runs_only_with_two_usable_cpus(monkeypatch):
    # Unpatched: a process held to one CPU (taskset -c 0) builds on the caller.
    threads = record_scatters(monkeypatch)
    qw.full_hamiltonian(qw.GraphParams(13, 6), 0.5, 0)
    two = johnson._usable_cpus() >= 2
    assert len(threads) == (2 if two else 1)


@pytest.mark.parametrize("n,k", [(2, 1), (11, 1), (12, 1), (6, 3), (9, 4), (14, 6)])
def test_clique_edges_are_the_sorted_off_diagonal_nonzeros(n, k):
    params = qw.GraphParams(n, k)
    n_vert = params.num_vertices
    index = johnson._colex_index(params, n_vert)
    edges = index.edges
    # numpy's own index type throughout, so no gather or scatter converts
    assert edges.dtype == index.elems.dtype == index.faces.dtype == np.int64
    assert len(edges) == n_vert * params.degree
    assert np.all(np.diff(edges) > 0)
    assert not np.any(edges % (n_vert + 1) == 0)  # i*N + i is the diagonal
    assert np.array_equal(edges, np.flatnonzero(qw.adjacency_matrix(params)))


@pytest.mark.parametrize("call", [
    lambda p, cap: qw.adjacency_matrix(p, cap),
    lambda p, cap: qw.full_hamiltonian(p, 0.5, 0, cap),
    lambda p, cap: qw.distance_partition(p, 0, cap),
    lambda p, cap: qw.check_partition_invariance(p, 0, cap),
    lambda p, cap: johnson.vertex_elements(p, cap),
    lambda p, cap: qw.validate_instance(p, 0, cap),
])
def test_a_memoised_index_still_checks_the_cap(call):
    params = qw.GraphParams(6, 3)
    call(params, 20)  # the index of J(6,3) is memoised now
    with pytest.raises(CapacityError, match="cap 19"):
        call(params, 19)


def test_memoised_index_is_read_only():
    params = qw.GraphParams(7, 3)
    qw.adjacency_matrix(params)
    index = johnson._colex_index(params, qw.DEFAULT_FULL_CAP)
    for array in (index.elems, index.faces, index.edges):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert johnson._colex_index(params, qw.DEFAULT_FULL_CAP) is index


def test_memo_stays_within_its_bound():
    bound = johnson._INDEX_MEMO_SIZE
    assert johnson._memo_colex_index.cache_info().maxsize == bound
    for n in range(2, 2 * bound + 5):
        qw.distance_partition(qw.GraphParams(n, 1), 0)
        assert johnson._memo_colex_index.cache_info().currsize <= bound
    assert johnson._memo_colex_index.cache_info().currsize == bound


def test_dense_matrices_are_the_callers_own():
    params = qw.GraphParams(6, 3)
    a = qw.adjacency_matrix(params)
    a[:] = 7.0
    h = qw.full_hamiltonian(params, 0.5, 2)
    h[:] = 7.0
    assert np.array_equal(qw.adjacency_matrix(params), brute_adjacency(6, 3))


def test_vertex_elements_is_a_writable_copy():
    params = qw.GraphParams(6, 3)
    elems = johnson.vertex_elements(params)
    assert elems.dtype == np.int64 and elems.flags.writeable
    assert [tuple(row) for row in elems] == colex_subsets(6, 3)
    elems[:] = 0
    assert [tuple(row) for row in johnson.vertex_elements(params)] == colex_subsets(6, 3)
    assert np.array_equal(qw.distance_partition(params, 19).classes[0], [19])


@pytest.mark.parametrize("n,k,w", [
    (6, 3, 0), (4, 2, 0), (8, 2, 0),
    (6, 3, 13), (8, 4, 69), (70, 2, 2000), (14, 6, 1500), (3003, 1, 1234),
])
def test_distance_classes_match_the_flatnonzero_form(n, k, w):
    params = qw.GraphParams(n, k)
    label = johnson._distance_labels(johnson._colex_index(params, params.num_vertices), w)
    classes = qw.distance_partition(params, w, params.num_vertices).classes
    assert len(classes) == k + 1
    for ell, ids in enumerate(classes):
        assert ids.dtype == np.int64
        assert np.array_equal(ids, np.flatnonzero(label == ell))


def test_partition_invariance_at_a_raised_cap_builds_no_edges():
    # J(30,5): N = 142,506, where the edge list would hold N*k(n-k) = 17.8
    # million int64 positions (143 MB) and A would take 162 GB
    params = qw.GraphParams(30, 5)
    n_vert, k = params.num_vertices, params.k
    tracemalloc.start()
    try:
        assert qw.check_partition_invariance(params, 1234, cap=n_vert) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "edges" not in vars(johnson._colex_index(params, n_vert))
    # The class image gathers one (k+1) x N block per face position, so
    # building the colex index sets the peak: 6.21 * 8 N k bytes (35 MB),
    # where the (k+1) x N x k gather of all positions at once peaked at
    # 8.26 (47 MB).
    assert peak < 6.3 * 8 * n_vert * k


def colex_incidence_adjacency(n, k):
    # independent reference: colex-sorted itertools.combinations and the
    # pairwise intersection sizes of their 0/1 incidence rows, one matmul
    subsets = sorted(itertools.combinations(range(1, n + 1), k), key=lambda c: c[::-1])
    inc = np.zeros((len(subsets), n))
    inc[np.arange(len(subsets))[:, None], np.array(subsets) - 1] = 1.0
    return np.array(subsets, dtype=np.int64), (inc @ inc.T == k - 1).astype(np.float64)


def test_adjacency_numpy_matches_module_surface():
    # J(8,4) has n = 2k, J(70,2) has elements above 64, beyond any 64-bit
    # subset mask, and J(14,6) and J(3003,1) sit at the default cap
    for n, k in ((2, 1), (7, 2), (8, 4), (70, 2), (14, 6), (3003, 1)):
        params = qw.GraphParams(n, k)
        ref_elems, ref = colex_incidence_adjacency(n, k)
        elems = vertex_elements(params)
        assert elems.dtype == np.int64
        assert np.array_equal(elems, ref_elems)
        a = qw.adjacency_matrix(params)
        assert a.dtype == np.float64
        assert np.array_equal(a, ref)
