import math
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from conftest import (
    embedding_residual_reference,
    invariance_residual_reference,
    peak_beta,
    probs_at,
    sup_distance_reference,
)
from hypothesis import given
from hypothesis import strategies as st

import qwsearch as qw
from qwsearch import cli, johnson
from qwsearch.errors import CapacityError, DomainError, NumericalError


def test_compare_full_reduced_k2_is_machine_exact():
    # the 2-dimensional full space IS the reduced space
    params = qw.GraphParams(2, 1)
    assert qw.compare_full_reduced(params, 0.25, 0, 2 * qw.run_time(params)) <= 1e-12


def test_compare_full_reduced_63():
    params = qw.GraphParams(6, 3)
    gamma = qw.gamma_star(params)
    assert qw.compare_full_reduced(params, gamma, 0, 2 * qw.run_time(params)) <= 1e-9


def test_curves_independent_of_marked_vertex():
    for n, k, w2 in ((6, 3, 13), (8, 2, 7)):
        params = qw.GraphParams(n, k)
        gamma = qw.gamma_star(params)
        t_max = 2 * qw.run_time(params)
        assert qw.compare_marked_vertices(params, gamma, 0, w2, t_max) <= 1e-10


_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True),
)


@st.composite
def _curve(draw):
    # levels and weights of one length d, a Lanczos run's closing beta
    d = draw(st.integers(1, 6))
    levels = tuple(draw(st.lists(_ENTRY, min_size=d, max_size=d)))
    weights = tuple(draw(st.lists(_ENTRY, min_size=d, max_size=d)))
    beta = draw(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e-6))
    return levels, weights, beta


@given(
    curve_a=_curve(),
    curve_b=_curve(),
    t_max=st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e4),
    same=st.sampled_from(["distinct", "same object", "equal copy"]),
)
def test_sup_distance_is_the_multi_pass_reference_bit_for_bit(curve_a, curve_b, t_max, same):
    # Each sum of _sup_distance is a plain left-to-right float sum; the
    # reference pads the shorter weights by hand where _sup_distance uses
    # zip_longest, and both must agree on curves of unequal lengths too.
    if same == "same object":
        curve_b = curve_a
    elif same == "equal copy":
        curve_b = tuple([*curve_a])
        assert curve_b is not curve_a
    got = qw.validation._sup_distance(curve_a, curve_b, t_max)
    assert got.hex() == sup_distance_reference(curve_a, curve_b, t_max).hex()
    if curve_b is curve_a:
        assert got.hex() == "0x0.0p+0"


def test_compare_marked_vertices_same_vertex_and_range():
    params = qw.GraphParams(6, 3)
    gamma = qw.gamma_star(params)
    t_max = 2 * qw.run_time(params)
    assert qw.compare_marked_vertices(params, gamma, 4, 4, t_max) == 0.0
    for w2 in (-1, params.num_vertices):
        with pytest.raises(DomainError):
            qw.compare_marked_vertices(params, gamma, 4, w2, t_max)


@pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (8, 3)])
def test_compare_marked_vertices_is_the_reports_vertex_independence(n, k):
    # At t_max = 2*run_time and w2 = w + 1 mod N, the public comparison runs
    # the same two-mark Lanczos batch as validate_instance, bit for bit.
    params = qw.GraphParams(n, k)
    gamma, t_max = qw.gamma_star(params), 2 * qw.run_time(params)
    n_vert = params.num_vertices
    for w in range(n_vert):
        checks = {c.name: c.residual for c in qw.validate_instance(params, w).checks}
        got = qw.compare_marked_vertices(params, gamma, w, (w + 1) % n_vert, t_max)
        assert got.hex() == checks["vertex_independence"].hex(), w


@pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (8, 3)])
def test_compare_full_reduced_is_the_reports_oracle_equivalence(n, k):
    # At t_max = 2*run_time the public comparison runs w beside w + 1 mod N,
    # the Lanczos batch of validate_instance, bit for bit.
    params = qw.GraphParams(n, k)
    gamma, t_max = qw.gamma_star(params), 2 * qw.run_time(params)
    for w in range(params.num_vertices):
        checks = {c.name: c.residual for c in qw.validate_instance(params, w).checks}
        got = qw.compare_full_reduced(params, gamma, w, t_max)
        assert got.hex() == checks["oracle_equivalence"].hex(), w


@pytest.mark.parametrize("compare", ["compare_full_reduced", "compare_marked_vertices"])
@pytest.mark.parametrize(
    "times",
    [
        [], [math.nan], [math.inf], [-1.0], [0.0, 1e308], np.zeros((2, 3)), [[1.0]],
        [[0.0], [1.0, 2.0]], ["a"], [0.0, 1 + 2j], np.array([0.0, 1 + 2j]),
        1e308, -1.0,
    ],
    ids=[
        "empty", "nan", "inf", "negative", "phase-overflow", "2d", "2d-single",
        "ragged", "string", "complex", "complex-array",
        "scalar-phase-overflow", "scalar-negative",
    ],
)
def test_compare_functions_refuse_bad_times_before_building_a(monkeypatch, compare, times):
    # Refused as input, before the adjacency exists: no numpy error or
    # warning, and no curve of a phase with no digits left (J(6,3) at gamma*
    # bounds every phase by (9*gamma + 1)*t, which overflows at t = 1e308).
    # The horizon t_max is one real; an array of times, the old argument, is
    # refused like any other non-scalar.
    params = qw.GraphParams(6, 3)
    gamma = qw.gamma_star(params)

    def no_adjacency(*args, **kwargs):
        raise AssertionError("adjacency built before the times were checked")

    monkeypatch.setattr(qw.validation, "adjacency_matrix", no_adjacency)
    args = {"compare_full_reduced": (0,), "compare_marked_vertices": (0, 5)}[compare]
    with pytest.raises(DomainError):
        getattr(qw, compare)(params, gamma, *args, times)


@pytest.mark.parametrize(
    "check",
    ["validate_instance", "compare_marked_vertices", "reduced_embedding_residual"],
)
def test_dense_checks_hold_one_hamiltonian_buffer(check):
    # Traced numpy allocations (LAPACK's own workspace is not traced): the
    # dense adjacency is the one N x N array, and the embedding basis and
    # the Lanczos vectors are N x (k+1), so the peak is about 1.03 N x N
    # matrices; a second N x N array would make it 2.
    params = qw.GraphParams(12, 4)
    gamma = qw.gamma_star(params)
    t_max = 2 * qw.run_time(params)
    call = {
        "validate_instance": lambda: qw.validate_instance(params, 3),
        "compare_marked_vertices": lambda: qw.compare_marked_vertices(
            params, gamma, 3, 40, t_max
        ),
        "reduced_embedding_residual": lambda: qw.validation.reduced_embedding_residual(
            params, gamma, 3
        ),
    }[check]
    call()  # warm-up: imports and first-call caches are not counted
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * params.num_vertices**2


def test_validate_instance_makes_one_values_only_dense_eigensolve(monkeypatch):
    params = qw.GraphParams(12, 5)
    n_vert, k = params.num_vertices, params.k
    qw.validate_instance(qw.GraphParams(6, 3), 3)  # warm-up on another graph
    qw.validation._memo_graph.cache_clear()
    shapes = {"eigh": [], "eigvalsh": []}
    for name in shapes:
        original = getattr(np.linalg, name)

        def recorded(matrix, *args, _name=name, _original=original, **kwargs):
            shapes[_name].append(np.shape(matrix))
            return _original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)

    def traced(w):
        for calls in shapes.values():
            calls.clear()
        tracemalloc.start()
        try:
            report = qw.validate_instance(params, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_passed
        assert peak <= 1.5 * 8 * n_vert**2

    # the first mark: the two Lanczos tridiagonals, stacked in one call (the
    # reduced model is solved without eigh); A by values only
    traced(3)
    assert shapes == {"eigh": [(2, k + 1, k + 1)], "eigvalsh": [(n_vert, n_vert)]}
    # a further mark of the same graph: only its two Lanczos tridiagonals
    traced(40)
    assert shapes == {"eigh": [(2, k + 1, k + 1)], "eigvalsh": []}


def _spelled(report):
    return [repr((c.name, c.residual, c.threshold, c.passed)) for c in report.checks]


@pytest.mark.parametrize(
    "n,k,marks",
    [(5, 2, range(10)), (6, 3, range(20)), (14, 6, (0, 3002))],
    ids=["5-2", "6-3", "14-6"],
)
def test_a_kept_graph_record_gives_the_cold_reports(n, k, marks):
    params = qw.GraphParams(n, k)
    memo = qw.validation._memo_graph
    cold = {}
    for w in marks:
        memo.cache_clear()
        cold[w] = _spelled(qw.validate_instance(params, w))
    # the record now kept was filled by the last mark
    warm = {w: _spelled(qw.validate_instance(params, w)) for w in marks}
    assert memo.cache_info().hits == len(marks)
    assert warm == cold


def test_graph_memo_stays_within_its_bound():
    bound = johnson._INDEX_MEMO_SIZE
    memo = qw.validation._memo_graph
    assert memo.cache_info().maxsize == bound
    for n in range(2, bound + 5):
        qw.validate_instance(qw.GraphParams(n, 1))
        assert memo.cache_info().currsize <= bound
    assert memo.cache_info().currsize == bound


def test_a_kept_graph_record_still_checks_the_cap_and_the_mark():
    params = qw.GraphParams(6, 3)
    memo = qw.validation._memo_graph
    qw.validate_instance(params, 0)
    hits = memo.cache_info().hits
    assert qw.check_spectrum(params).all_passed
    assert memo.cache_info().hits == hits + 1
    before = memo.cache_info()
    with pytest.raises(CapacityError, match="cap 19"):
        qw.validate_instance(params, 0, cap=19)
    with pytest.raises(CapacityError, match="cap 19"):
        qw.check_spectrum(params, cap=19)
    for w in (-1, 20):
        with pytest.raises(DomainError, match="marked vertex"):
            qw.validate_instance(params, w)
    assert memo.cache_info() == before  # refused before the record is read


def test_a_kept_graph_record_is_read_only():
    params = qw.GraphParams(7, 3)
    record = qw.validation._memo_graph(params)
    assert type(record.sd.lambdas) is tuple and type(record.sd.overlaps) is tuple
    # the reduced curve (levels, weights, beta): tuples of Python floats
    levels, weights, beta = record.reduced
    assert type(record.reduced) is tuple and type(beta) is float
    for values in (levels, weights):
        assert type(values) is tuple and len(values) == params.k + 1
        assert all(type(x) is float for x in values)
    # the reduced matrix at gamma*, and the class sizes, the index's and the record's
    gamma = qw.gamma_star(params)
    assert np.array_equal(record.h_red, qw.reduced_hamiltonian(params, gamma))
    index = qw.johnson._colex_index(params, params.num_vertices)
    sizes = tuple(math.comb(3, l) * math.comb(4, l) for l in range(4))
    assert index.sizes == sizes and all(type(x) is int for x in index.sizes)
    assert np.array_equal(record.size_array, sizes)
    assert np.array_equal(record.size_roots, np.sqrt(sizes))
    for array in (record.h_red, record.size_array, record.size_roots):
        assert array.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            array[0] += 1
    assert qw.validation._memo_graph(params) is record


def test_partition_and_embedding_checks_make_no_eigensolve(monkeypatch):
    # A fresh graph's record forms its spectrum check only when that is
    # read: the partition invariance and the embedding residual read the
    # same record without a dense eigensolve, and validate_instance then
    # makes the one values-only eigvalsh on it.
    params = qw.GraphParams(9, 4)
    qw.validation._memo_graph.cache_clear()
    calls = []
    for name in ("eigh", "eigvalsh"):

        def recorded(matrix, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(matrix)))
            return _original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    memo = qw.validation._memo_graph
    assert qw.check_partition_invariance(params, 17) == 0.0
    assert qw.validation.reduced_embedding_residual(params, qw.gamma_star(params), 17) <= 1e-10
    assert calls == [] and (memo.cache_info().misses, memo.cache_info().hits) == (1, 1)
    assert qw.validate_instance(params, 17).all_passed
    assert calls == [("eigvalsh", (126, 126)), ("eigh", (2, 5, 5))]
    assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 2)


def test_a_graph_past_the_exact_basis_is_refused_before_any_dense_array(monkeypatch, capsys):
    # J(18,8), N = 43758 at a raised cap: the projector basis's bound is
    # 2.1e16, past 2**53, and A would take 15.3 GB.  Both dense constructors
    # raise here, so a refusal that came after one would show as their error.
    params = qw.GraphParams(18, 8)
    n_vert = params.num_vertices

    def no_dense(*args):
        raise AssertionError("an N x N array was built")

    monkeypatch.setattr(johnson, "_adjacency", no_dense)
    monkeypatch.setattr(qw.validation, "_adjacency", no_dense)
    johnson._memo_colex_index.cache_clear()
    assert qw.validation._memo_graph(params).basis_bound >= 2**53
    gamma = qw.gamma_star(params)
    for call in (
        lambda: qw.validate_instance(params, 5, cap=n_vert),
        lambda: qw.validation.reduced_embedding_residual(params, gamma, 5, cap=n_vert),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match="exact integer range of binary64"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no array of the index either: its elements alone take 2.8 MB
        assert peak < 1e6
    index = johnson._memo_colex_index(params)
    assert "elems" not in vars(index) and "faces" not in vars(index)
    assert cli.main(["validate", "--n", "18", "--k", "8", "--full-cap", str(n_vert)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "exact integer range of binary64" in err


def test_a_large_graph_past_the_exact_basis_is_refused_at_once(monkeypatch, capsys):
    # J(30,15), N = 1.55e8 at a raised cap: its colex index would take
    # about 37 GB, so reading any of its arrays fails the test.
    def no_index(self):
        raise AssertionError("an array of the colex index was built")

    monkeypatch.setattr(johnson._ColexIndex, "elems", property(no_index))
    start = time.perf_counter()
    assert cli.main(["validate", "--n", "30", "--k", "15", "--full-cap", "155117520"]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "exact integer range of binary64" in err


def test_a_refused_check_builds_no_array_of_the_index():
    params = qw.GraphParams(9, 4)
    johnson._memo_colex_index.cache_clear()
    index = johnson._memo_colex_index(params)
    with pytest.raises(CapacityError, match="cap 125"):
        qw.check_spectrum(params, cap=125)
    with pytest.raises(CapacityError, match="cap 125"):
        qw.check_partition_invariance(params, 0, cap=125)
    for w in (-1, 126):
        with pytest.raises(DomainError, match="marked vertex"):
            qw.check_partition_invariance(params, w)
    assert johnson._memo_colex_index(params) is index
    assert vars(index) == {"params": params, "sizes": (1, 20, 60, 40, 5)}


def test_each_graph_forms_its_reduced_matrix_and_class_sizes_once(monkeypatch):
    # Every mark of J(5,2), then of J(6,3): the reduced matrix at gamma* and
    # the distance-class sizes depend on (n, k) alone, so each is formed
    # once per graph, not once per mark.
    qw.validation._memo_graph.cache_clear()
    qw.johnson._memo_colex_index.cache_clear()
    calls = {"reduced": 0, "sizes": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(
        qw.validation, "_reduced_matrix", counted("reduced", qw.validation._reduced_matrix)
    )
    monkeypatch.setattr(qw.johnson, "_class_sizes", counted("sizes", qw.johnson._class_sizes))
    for graphs, (n, k) in enumerate(((5, 2), (6, 3)), start=1):
        params = qw.GraphParams(n, k)
        for w in range(params.num_vertices):
            assert qw.validate_instance(params, w).all_passed
        assert calls == {"reduced": graphs, "sizes": graphs}


def dense_curve(h, w, times):
    """Test-only oracle: the success curve of |s> from H's dense eigenvectors."""
    values, vectors = qw.sym_eig(h)
    n_vert = h.shape[0]
    start = np.full(n_vert, 1.0 / math.sqrt(n_vert))
    weights = vectors[w, :] * (vectors.T @ start)
    return probs_at(values, weights, times)


@pytest.mark.parametrize("scale", [1.0, 0.3, 3.0])
@pytest.mark.parametrize("n,k", [(2, 1), (7, 1), (6, 3), (14, 6)])
def test_krylov_curves_match_the_dense_eigenvector_curves(n, k, scale):
    # marks N-1 and 0: the wrap w = N-1 -> w2 = 0 of validate_instance
    params = qw.GraphParams(n, k)
    gamma = scale * qw.gamma_star(params)
    times = np.linspace(0.0, 2 * qw.run_time(params), 64)
    marks = (params.num_vertices - 1, 0)
    curves = qw.validation._lanczos(qw.adjacency_matrix(params), gamma, marks, params)
    for w, (levels, weights, _) in zip(marks, curves):
        curve = probs_at(levels, weights, times)
        expected = dense_curve(qw.full_hamiltonian(params, gamma, w), w, times)
        assert np.max(np.abs(curve - expected)) <= 1e-12


def test_reported_bounds_cover_the_dense_eigenvector_curves():
    # every mark of J(6,3): the dense curves of w and of w + 1 mod N differ
    # from the reduced curve and from each other by at most the reported
    # bounds, at the 64 times the checks once sampled and on 2001 times
    params = qw.GraphParams(6, 3)
    gamma, n_vert = qw.gamma_star(params), params.num_vertices
    levels, weights, _ = qw.validation._reduced_curve(qw.spectral_data(params), gamma)
    reports = [
        {c.name: c.residual for c in qw.validate_instance(params, w).checks}
        for w in range(n_vert)
    ]
    for m in (64, 2001):
        times = np.linspace(0.0, 2 * qw.run_time(params), m)
        expected = probs_at(levels, weights, times)
        dense = [
            dense_curve(qw.full_hamiltonian(params, gamma, w), w, times) for w in range(n_vert)
        ]
        for w, checks in enumerate(reports):
            assert np.max(np.abs(dense[w] - expected)) <= checks["oracle_equivalence"]
            vertex = np.max(np.abs(dense[w] - dense[(w + 1) % n_vert]))
            assert vertex <= checks["vertex_independence"]


@pytest.mark.parametrize("n,k,w", [(5, 2, 3), (6, 3, 0), (14, 6, 100)])
def test_projector_basis_is_exact_in_integers(n, k, w):
    params = qw.GraphParams(n, k)
    lambdas = qw.spectral_data(params).lambdas
    a = qw.adjacency_matrix(params)
    basis = qw.validation._projector_basis(qw.validation._memo_graph(params), a, w)
    ints = basis.astype(np.int64)
    assert np.array_equal(ints, basis)
    a_int, lam = a.astype(np.int64), [int(x) for x in lambdas]
    for ell in range(k + 1):
        # (A - lambda_l) P_l|w> == 0 in integers
        assert not np.any(a_int @ ints[:, ell] - lam[ell] * ints[:, ell])
    # column l is P_l|w> times c_l = prod_{j != l} (lambda_l - lambda_j), and
    # sum_l P_l = I, so sum_l (D / c_l) column_l == D |w> for D = lcm(c_l)
    c = [math.prod(lam[ell] - lam[j] for j in range(k + 1) if j != ell) for ell in range(k + 1)]
    scale = math.lcm(*c)
    total = sum((scale // c_l) * ints[:, ell].astype(object) for ell, c_l in enumerate(c))
    expected = np.zeros(params.num_vertices, dtype=object)
    expected[w] = scale
    assert np.array_equal(total, expected)


def _drop_one_edge(a):
    i, j = np.argwhere(a)[0]
    a[i, j] = a[j, i] = 0.0
    return a


def test_a_krylov_space_that_does_not_close_is_refused():
    # J(6,3) minus one edge: no equitable partition, so the Krylov space of
    # |s> keeps growing past k+1 = 4 dimensions
    params = qw.GraphParams(6, 3)
    a = _drop_one_edge(qw.adjacency_matrix(params))
    with pytest.raises(NumericalError, match="did not close"):
        qw.validation._lanczos(a, qw.gamma_star(params), (0, 1), params)


def test_a_batch_whose_runs_close_at_different_steps_is_refused():
    # A 6-vertex graph with no equitable distance partition: the Krylov
    # space of |s> under H_0 closes at step 2 and under H_1 and H_2 at step 3.
    a = np.array(
        [
            [0, 1, 1, 1, 1, 1],
            [1, 0, 0, 1, 0, 1],
            [1, 0, 0, 0, 0, 0],
            [1, 1, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0],
            [1, 1, 0, 1, 0, 0],
        ],
        dtype=float,
    )
    params = qw.GraphParams(4, 2)  # N = 6, k + 1 = 3 steps
    with pytest.raises(NumericalError, match="closed at different steps"):
        qw.validation._lanczos(a, 0.5, (0, 1), params)
    curves = qw.validation._lanczos(a, 0.5, (1, 2), params)
    assert [len(levels) for levels, _, _ in curves] == [3, 3]


def test_validate_refuses_a_krylov_space_that_does_not_close(monkeypatch, capsys):
    adjacency = qw.validation._adjacency
    monkeypatch.setattr(
        qw.validation, "_adjacency", lambda index: _drop_one_edge(adjacency(index))
    )
    assert cli.main(["validate", "--n", "6", "--k", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "did not close" in err


def test_check_spectrum_42():
    report = qw.check_spectrum(qw.GraphParams(4, 2))
    assert report.all_passed
    dense = np.sort(qw.sym_eig(qw.adjacency_matrix(qw.GraphParams(4, 2)))[0])
    assert np.max(np.abs(dense - [-2, -2, 0, 0, 0, 4])) <= 1e-8


def test_check_spectrum_63():
    report = qw.check_spectrum(qw.GraphParams(6, 3))
    assert report.all_passed
    dense = np.sort(qw.sym_eig(qw.adjacency_matrix(qw.GraphParams(6, 3)))[0])
    expected = [-3.0] * 5 + [-1.0] * 9 + [3.0] * 5 + [9.0]
    assert np.max(np.abs(dense - expected)) <= 1e-8


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_check_spectrum_boundary(k):
    assert qw.check_spectrum(qw.GraphParams(2 * k, k)).all_passed


def test_partition_invariance_residuals():
    # exact: A times the class indicators is an integer matrix, so correct
    # graphs read 0.0, at the cap too (J(78,2) and J(3003,1), N = 3003)
    for n, k, w in ((2, 1, 0), (6, 3, 0), (8, 2, 0), (9, 4, 17), (78, 2, 0), (3003, 1, 0)):
        assert qw.check_partition_invariance(qw.GraphParams(n, k), w) == 0.0
    # one flipped edge breaks the equitable partition and must show
    params = qw.GraphParams(8, 3)
    a = qw.adjacency_matrix(params)
    a[1, 2] = a[2, 1] = 1.0 - a[1, 2]
    index = qw.johnson._colex_index(params, 56)
    label = qw.johnson._distance_labels(index, 0)
    indicators = (label == np.arange(params.k + 1)[:, None]).astype(np.float64)
    record = qw.validation._memo_graph(params)
    residual = qw.validation._invariance_residual(record, indicators @ a.T, label)
    assert residual > 1e-12
    assert residual == pytest.approx(0.33993463423951, rel=1e-13)


@pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (9, 4), (12, 5)])
def test_invariance_and_embedding_residuals_are_their_plain_forms(n, k):
    # On images and reduced matrices that do not match, so that every
    # residual is a nonzero float, in the image's own layout and in C
    # order: one bincount for all class sums, the norms as numpy's own
    # reduction and -|w><w| by broadcasting give the plain forms' bits.
    params = qw.GraphParams(n, k)
    index = johnson._colex_index(params, params.num_vertices)
    record = qw.validation._memo_graph(params)
    a = johnson._adjacency(index)
    rng = np.random.default_rng(n * 10 + k)
    for w in rng.integers(params.num_vertices, size=3).tolist():
        label = johnson._distance_labels(index, w)
        image = johnson._class_image(index, label)
        image += rng.integers(-3, 4, size=image.shape)
        for layout in (image, np.ascontiguousarray(image)):
            got = qw.validation._invariance_residual(record, layout, label)
            assert got > 0.0
            assert got.hex() == invariance_residual_reference(record, layout, label).hex()
        gamma = float(rng.uniform(0.1, 3.0)) * qw.gamma_star(params)
        off = qw.reduced_hamiltonian(params, gamma) + rng.normal(scale=1e-9, size=(k + 1, k + 1))
        got = qw.validation._embedding_residual(record, a, gamma, off, w)
        assert got > 0.0
        assert got.hex() == embedding_residual_reference(record, a, gamma, off, w).hex()


def test_partition_invariance_builds_no_dense_matrix():
    params = qw.GraphParams(14, 6)
    qw.check_partition_invariance(params, 100)  # warm-up: first-call caches are not counted
    tracemalloc.start()
    try:
        assert qw.check_partition_invariance(params, 100) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * params.num_vertices**2


def test_reduced_embedding_small_instances():
    for n, k in ((4, 2), (6, 3), (8, 2)):
        params = qw.GraphParams(n, k)
        gamma = qw.gamma_star(params)
        assert qw.validation.reduced_embedding_residual(params, gamma, 0) <= 1e-10


def gap_2x2_oracle(n):
    # independent closed-form gap of the k=1 reduced model at gamma_star
    gamma = (n - 1) / n**2
    a = -gamma * (n - 1) - 1 / n
    d = gamma - (n - 1) / n
    b = -math.sqrt(n - 1) / n
    disc = math.sqrt((a - d) ** 2 + 4 * b * b)
    return disc


@pytest.mark.parametrize("n", [10, 100, 10**4])
def test_asymptotics_row_k1_against_2x2_formula(n):
    row = qw.asymptotics_row(qw.GraphParams(n, 1))
    assert row.gap == pytest.approx(gap_2x2_oracle(n), rel=1e-12)
    assert row.phase == pytest.approx(row.gap * row.t_run, rel=1e-15)
    assert row.gap_ratio == pytest.approx(row.phase / math.pi, rel=1e-13)


def test_asymptotics_row_fields_and_sanity():
    params = qw.GraphParams(100, 2)
    row = qw.asymptotics_row(params)
    d = asdict(row)
    assert list(d) == [
        "n", "N", "gamma_star", "t_run", "p_at_trun", "t_peak", "p_peak",
        "gap", "gap_ratio", "phase", "s_overlap_sq", "w_overlap_sq",
    ]
    assert row.N == 4950
    assert row.gap > 0 and row.phase > 0
    assert 0 <= row.p_at_trun <= 1 and 0 <= row.p_peak <= 1
    levels, weights, _ = qw.validation._reduced_curve(qw.spectral_data(params), row.gamma_star)
    assert row.p_peak + peak_beta(levels, weights, 2 * row.t_run) >= row.p_at_trun


def test_asymptotics_k1_family_trends():
    rows = qw.convergence_sweep(1, [100, 1000, 10000])
    ratio_err = [abs(r.gap_ratio - 1) for r in rows]
    phase_err = [abs(r.phase - math.pi) for r in rows]
    assert ratio_err == sorted(ratio_err, reverse=True)
    assert phase_err == sorted(phase_err, reverse=True)
    for r in rows:
        assert abs(r.s_overlap_sq - 0.5) < 0.03
        assert abs(r.w_overlap_sq - 0.5) < 0.08


def test_phase_near_pi_k1_large_n():
    row = qw.asymptotics_row(qw.GraphParams(10**6, 1))
    assert abs(row.phase - math.pi) <= 1e-2


def test_ground_state_splits_evenly():
    # numerical content of the two lowest eigenvectors being (|s> -+ |w>)/sqrt(2)
    for k in (1, 2, 3):
        rows = qw.convergence_sweep(k, [100, 10**4, 10**6])
        s_err = [abs(r.s_overlap_sq - 0.5) for r in rows]
        w_err = [abs(r.w_overlap_sq - 0.5) for r in rows]
        assert s_err[2] < s_err[1] < s_err[0]
        assert w_err[2] < w_err[1] < w_err[0]
        sum_err = [abs(r.s_overlap_sq + r.w_overlap_sq - 1.0) for r in rows]
        assert sum_err[2] < sum_err[0]
        assert sum_err[2] <= 2e-3  # O(1/sqrt(n)) drift at n = 1e6


def test_convergence_sweep_validation():
    with pytest.raises(DomainError):
        qw.convergence_sweep(2, [])
    with pytest.raises(DomainError):
        qw.convergence_sweep(2, [100, 100])
    with pytest.raises(DomainError):
        qw.convergence_sweep(2, [1000, 100])
    with pytest.raises(DomainError):
        qw.convergence_sweep(3, [5, 100])  # first n below 2k


def test_convergence_sweep_parallel_identical():
    seq = qw.convergence_sweep(2, [100, 400, 900])
    par = qw.convergence_sweep(2, [100, 400, 900], jobs=3)
    assert seq == par  # bit-identical rows, independent of parallelism


@pytest.mark.parametrize("jobs", [0, -3, "2", None, True, 1.5], ids=repr)
def test_convergence_sweep_rejects_jobs_below_one(jobs):
    with pytest.raises(DomainError, match="^jobs must be an integer >= 1"):
        qw.convergence_sweep(2, [100], jobs=jobs)


@pytest.mark.parametrize("n_list", [100, "100", None, [100.0], ["100"]], ids=repr)
def test_convergence_sweep_refuses_what_is_not_a_list_of_integers(n_list):
    # An int or None is no list; "100" is one of strs, not of integers.
    message = "^(n_list must be an iterable|each n of n_list must be an integer)"
    with pytest.raises(DomainError, match=message):
        qw.convergence_sweep(3, n_list)


def _count_calls(monkeypatch, owner, name):
    # Replace the function at every module binding inside the package.
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (qw, qw.spectral, qw.coupling, qw.reduced, qw.dynamics, qw.validation):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n,k", [(100, 2), (1000, 3), (300, 5)])
def test_asymptotics_row_solves_the_reduced_model_once(monkeypatch, n, k):
    params = qw.GraphParams(n, k)
    expected = qw.asymptotics_row(params)
    solve_calls = _count_calls(monkeypatch, qw.reduced, "_solve")
    eig_calls = _count_calls(monkeypatch, qw.dynamics, "sym_eig")
    sd_calls = _count_calls(monkeypatch, qw.spectral, "spectral_data")
    row = qw.asymptotics_row(params)
    assert len(solve_calls) == 1 and not eig_calls
    assert len(sd_calls) == 1
    assert row == expected
    # p_at_trun and the peak are the public functions' values on the same instance
    gamma = row.gamma_star
    assert row.p_at_trun == qw.success_probability(params, gamma, row.t_run)
    assert (row.t_peak, row.p_peak) == qw.find_peak(params, gamma, (0.0, 2 * qw.run_time(params)))


@pytest.mark.parametrize("n,k", [(100, 2), (1000, 3), (300, 5), (454, 6)])
def test_asymptotics_row_is_one_pass(monkeypatch, n, k):
    # One row computes the multiplicities m_0..m_k, gamma_star's exact
    # ratio, run_time's power and factorial, and the curve once each.
    params = qw.GraphParams(n, k)
    expected = qw.asymptotics_row(params)
    ratio_calls = _count_calls(monkeypatch, qw.coupling, "_gamma_star_ratio")
    mult_calls = _count_calls(monkeypatch, qw.spectral, "_multiplicity")
    factorial_calls, factorial = [], math.factorial
    monkeypatch.setattr(math, "factorial", lambda x: factorial_calls.append(x) or factorial(x))
    curve_calls = _count_calls(monkeypatch, qw.reduced, "_curve")
    assert qw.asymptotics_row(params) == expected
    assert len(ratio_calls) == 1
    assert len(mult_calls) == k + 1
    assert len(factorial_calls) == 1
    assert len(curve_calls) == 1


@pytest.mark.parametrize(
    "k, n, p_at_trun",
    [(3, 10**12, 0.836387494425691), (6, 10**6, 0.287205716053208),
     (5, 10**8, 5.32316614e-7), (8, 10**4, 0.999976427564382)],
)
def test_rows_below_the_old_gap_guard_answer(k, n, p_at_trun):
    # Gaps of 5e-18 to 4e-14, which a dense eigh of the shifted matrix lost
    # to ulp(||H||) and refused, or answered up to 2.5e-5 off; p(t_run) of a
    # 120-digit model at the same float gamma*.
    row = qw.asymptotics_row(qw.GraphParams(n, k))
    assert abs(row.p_at_trun - p_at_trun) <= 1e-15


def test_validate_instance_k2():
    report = qw.validate_instance(qw.GraphParams(2, 1))
    assert report.all_passed
    worst = max(c.residual for c in report.checks)
    assert worst <= 1e-11


def test_validate_instance_63_passes_all():
    report = qw.validate_instance(qw.GraphParams(6, 3))
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert names == [
        "spectrum_values", "spectrum_multiplicities", "overlap_consistency",
        "partition_invariance", "reduced_embedding", "oracle_equivalence",
        "vertex_independence",
    ]
    oracle = next(c for c in report.checks if c.name == "oracle_equivalence")
    assert oracle.residual <= 1e-9


def test_overlap_consistency_reads_exactly_zero():
    # m_l / N and overlap_sq_factorial's cancelled ratio are the same
    # rational, each rounded once, so the two routes agree bit for bit:
    # 4680 graphs, k = 1..12, every n = 2k..399 and n = 1e6, 1e12, 1e18.
    # validate's threshold stays 1e-13.
    for k in range(1, 13):
        for n in (*range(2 * k, 400), 10**6, 10**12, 10**18):
            assert qw.validation.overlap_consistency_residual(qw.GraphParams(n, k)) == 0.0, (n, k)
