import math

import numpy as np
import pytest

import qwsearch as qw
from qwsearch.errors import DomainError


def test_eigenvalue_examples():
    assert [qw.eigenvalue(qw.GraphParams(6, 3), l) for l in range(4)] == [9, 3, -1, -3]
    assert [qw.eigenvalue(qw.GraphParams(4, 2), l) for l in range(3)] == [4, 0, -2]
    for n, k in [(6, 3), (10, 2), (14, 7)]:
        assert qw.eigenvalue(qw.GraphParams(n, k), 0) == k * (n - k)
    with pytest.raises(DomainError):
        qw.eigenvalue(qw.GraphParams(6, 3), 4)


def test_numpy_integer_levels_answer_as_python_ints():
    # A numpy level is read as a Python int, so it cannot wrap against an n
    # beyond int64.
    big = qw.GraphParams(2**63 + 5, 2)
    for ell in (np.int64(1), np.int32(0), np.uint8(2)):
        for level_fn in (qw.eigenvalue, qw.multiplicity):
            value = level_fn(big, ell)
            assert type(value) is int and value == level_fn(big, int(ell))


def test_overlap_sq_factorial_refuses_n_beyond_math_factorial():
    with pytest.raises(DomainError, match="math.factorial"):
        qw.overlap_sq_factorial(qw.GraphParams(10**19, 2), 1)


def test_multiplicity_examples():
    assert [qw.multiplicity(qw.GraphParams(6, 3), l) for l in range(4)] == [1, 5, 9, 5]
    assert [qw.multiplicity(qw.GraphParams(4, 2), l) for l in range(3)] == [1, 3, 2]
    for n, k in [(6, 3), (4, 2), (16, 5), (40, 8)]:
        params = qw.GraphParams(n, k)
        mults = [qw.multiplicity(params, l) for l in range(k + 1)]
        assert all(m > 0 for m in mults)
        assert sum(mults) == params.num_vertices
    assert qw.multiplicity(qw.GraphParams(30, 4), 0) == 1


def test_overlap_examples():
    params = qw.GraphParams(6, 3)
    expected = [math.sqrt(v) for v in (1 / 20, 5 / 20, 9 / 20, 5 / 20)]
    for ell in range(4):
        assert qw.overlap(params, ell) == pytest.approx(expected[ell], rel=1e-15)
    big = qw.GraphParams(12, 4)
    assert abs(qw.overlap(big, 0) - 1 / math.sqrt(big.num_vertices)) < 1e-16
    total = math.fsum(qw.overlap(big, l) ** 2 for l in range(5))
    assert abs(total - 1.0) <= 1e-14


@pytest.mark.parametrize("n,k", [(6, 3), (9, 2), (16, 8), (60, 5), (41, 7)])
def test_overlap_two_routes_agree(n, k):
    params = qw.GraphParams(n, k)
    for ell in range(k + 1):
        via_mult = qw.multiplicity(params, ell) / params.num_vertices
        via_fact = qw.overlap_sq_factorial(params, ell)
        assert via_mult == pytest.approx(via_fact, rel=1e-13)


def test_overlap_via_dense_projectors():
    # <w|P_l|w> assembled from the dense adjacency eigenvectors must equal
    # the closed-form overlap squared
    params = qw.GraphParams(6, 3)
    w = 0
    values, vectors = qw.sym_eig(qw.adjacency_matrix(params))
    for ell in range(4):
        lam = qw.eigenvalue(params, ell)
        sel = np.abs(values - lam) <= 1e-6
        vecs = vectors[:, sel]
        p_sq = float(vecs[w, :] @ vecs[w, :])
        assert p_sq == pytest.approx(qw.overlap(params, ell) ** 2, abs=1e-12)


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (6, 3), (8, 4), (10, 2)])
def test_closed_spectrum_matches_dense(n, k):
    params = qw.GraphParams(n, k)
    dense = np.sort(qw.sym_eig(qw.adjacency_matrix(params))[0])
    expanded = np.concatenate(
        [
            np.full(qw.multiplicity(params, l), float(qw.eigenvalue(params, l)))
            for l in range(k, -1, -1)
        ]
    )
    assert np.max(np.abs(dense - expanded)) <= 1e-8


def test_spectral_data_bundle():
    sd = qw.spectral_data(qw.GraphParams(6, 3))
    assert np.array_equal(sd.lambdas, [9.0, 3.0, -1.0, -3.0])
    assert sd.mults == (1, 5, 9, 5)
    assert np.all(np.diff(sd.lambdas) < 0)


def test_reduced_hamiltonian_k2_hand_value():
    red = qw.reduced_hamiltonian(qw.GraphParams(2, 1), 1.0)
    expected = np.array([[-1.5, -0.5], [-0.5, 0.5]])
    assert np.max(np.abs(red - expected)) <= 1e-15
    # cross-check by conjugating the full 2x2 into the eigenbasis {|s>, |w>-proj}
    h = qw.full_hamiltonian(qw.GraphParams(2, 1), 1.0, 0)
    basis = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.max(np.abs(basis.T @ h @ basis - expected)) <= 1e-15


@pytest.mark.parametrize("n,k", [(6, 3), (4, 2), (8, 2)])
def test_reduced_diagonal_entries(n, k):
    params = qw.GraphParams(n, k)
    gamma = 0.37
    red = qw.reduced_hamiltonian(params, gamma)
    for ell in range(k + 1):
        expected = -gamma * qw.eigenvalue(params, ell) - qw.overlap(params, ell) ** 2
        assert red[ell, ell] == pytest.approx(expected, rel=1e-15)
    with pytest.raises(DomainError):
        qw.reduced_hamiltonian(params, 0.0)


@pytest.mark.parametrize("n,k,gamma", [(6, 3, 0.1075), (4, 2, 0.3), (8, 2, 0.05)])
def test_reduced_spectrum_subset_of_full(n, k, gamma):
    params = qw.GraphParams(n, k)
    red_vals = qw.sym_eig(qw.reduced_hamiltonian(params, gamma))[0]
    full_vals = np.sort(qw.sym_eig(qw.full_hamiltonian(params, gamma, 0))[0])
    used = np.zeros(len(full_vals), dtype=bool)
    for rv in red_vals:
        dist = np.where(used, np.inf, np.abs(full_vals - rv))
        j = int(np.argmin(dist))
        assert dist[j] <= 1e-9
        used[j] = True


def test_reduced_states():
    # the marked vertex in the reduced basis: the overlap vector p
    marked = qw.spectral_data(qw.GraphParams(6, 3)).overlaps
    expected = np.sqrt([0.05, 0.25, 0.45, 0.25])
    assert np.max(np.abs(marked - expected)) <= 1e-15
    # <s|w> = p_0 = 1/sqrt(N)
    assert float(marked[0]) == pytest.approx(1 / math.sqrt(20), rel=1e-15)
    big = qw.spectral_data(qw.GraphParams(12, 5)).overlaps
    assert abs(np.linalg.norm(big) - 1.0) <= 1e-14
