import itertools
import math

import numpy as np
import pytest

import qwsearch as qw
from qwsearch.errors import DomainError
from qwsearch.johnson import vertex_elements


def random_symmetric(rng, dim):
    m = rng.standard_normal((dim, dim))
    return (m + m.T) / 2


def test_sym_eig_agrees_with_eigvalsh():
    rng = np.random.default_rng(7)
    for dim in (2, 6, 33, 80):
        m = random_symmetric(rng, dim)
        values, vectors = qw.sym_eig(m)
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(values - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))
        assert np.max(np.abs(vectors.T @ vectors - np.eye(dim))) <= 1e-12


def test_sym_eig_diagonal_and_zero_matrices():
    values, vectors = qw.sym_eig(np.diag([2.0, -1.0]))
    assert np.array_equal(values, [-1.0, 2.0])
    assert np.array_equal(np.abs(vectors), [[0.0, 1.0], [1.0, 0.0]])
    values, vectors = qw.sym_eig(np.zeros((3, 3)))
    assert np.array_equal(values, np.zeros(3))
    assert np.max(np.abs(vectors.T @ vectors - np.eye(3))) <= 1e-15


def test_sym_eig_handles_denormal_offdiagonals():
    m = np.diag([3.0, 1.0, 2.0])
    m[0, 1] = m[1, 0] = 1e-310
    m[1, 2] = m[2, 1] = 5e-320
    assert np.allclose(qw.sym_eig(m)[0], [1.0, 2.0, 3.0], atol=1e-12)


def test_sym_eig_deterministic_rerun():
    rng = np.random.default_rng(99)
    m = random_symmetric(rng, 25)
    first = qw.sym_eig(m)
    second = qw.sym_eig(m)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sym_eig_rejects_non_finite_entries(bad):
    m = np.eye(3)
    m[0, 2] = m[2, 0] = bad
    with pytest.raises(DomainError, match="non-finite"):
        qw.sym_eig(m)
    m = np.eye(3)
    m[1, 1] = bad
    with pytest.raises(DomainError, match="non-finite"):
        qw.sym_eig(m)


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
