import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import qwsearch as qw
from qwsearch.errors import DomainError, NumericalError


def test_compare_full_reduced_k2_is_machine_exact():
    # the 2-dimensional full space IS the reduced space
    params = qw.GraphParams(2, 1)
    times = np.linspace(0.0, 2 * qw.run_time(params), 64)
    assert qw.compare_full_reduced(params, 0.25, 0, times) <= 1e-12


def test_compare_full_reduced_63():
    params = qw.GraphParams(6, 3)
    gamma = qw.gamma_star(params)
    times = np.linspace(0.0, 2 * qw.run_time(params), 64)
    assert qw.compare_full_reduced(params, gamma, 0, times) <= 1e-9


def test_curves_independent_of_marked_vertex():
    for n, k, w2 in ((6, 3, 13), (8, 2, 7)):
        params = qw.GraphParams(n, k)
        gamma = qw.gamma_star(params)
        times = np.linspace(0.0, 2 * qw.run_time(params), 64)
        assert qw.compare_marked_vertices(params, gamma, 0, w2, times) <= 1e-10


def test_compare_marked_vertices_same_vertex_and_range():
    params = qw.GraphParams(6, 3)
    gamma = qw.gamma_star(params)
    times = np.linspace(0.0, 2 * qw.run_time(params), 64)
    assert qw.compare_marked_vertices(params, gamma, 4, 4, times) == 0.0
    for w2 in (-1, params.num_vertices):
        with pytest.raises(DomainError):
            qw.compare_marked_vertices(params, gamma, 4, w2, times)


@pytest.mark.parametrize(
    "check",
    ["validate_instance", "compare_marked_vertices", "reduced_embedding_residual"],
)
def test_dense_checks_hold_one_hamiltonian_buffer(check):
    # Traced numpy allocations (LAPACK's own workspace is not traced): the
    # Hamiltonians are formed in A's buffer, so the peak is A, the
    # eigenvectors, sym_eig's residual buffer and a 256-row block, about
    # 3.6 N x N matrices; a second Hamiltonian copy would make it 4.6.
    params = qw.GraphParams(12, 4)
    gamma = qw.gamma_star(params)
    times = np.linspace(0.0, 2 * qw.run_time(params), 64)
    call = {
        "validate_instance": lambda: qw.validate_instance(params, 3),
        "compare_marked_vertices": lambda: qw.compare_marked_vertices(
            params, gamma, 3, 40, times
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
    assert peak <= 4.0 * 8 * params.num_vertices**2


def test_check_spectrum_42():
    report = qw.check_spectrum(qw.GraphParams(4, 2))
    assert report.all_passed
    dense = np.sort(qw.sym_eig(qw.adjacency_matrix(qw.GraphParams(4, 2))).values)
    assert np.max(np.abs(dense - [-2, -2, 0, 0, 0, 4])) <= 1e-8


def test_check_spectrum_63():
    report = qw.check_spectrum(qw.GraphParams(6, 3))
    assert report.all_passed
    dense = np.sort(qw.sym_eig(qw.adjacency_matrix(qw.GraphParams(6, 3))).values)
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
    label = qw.johnson._distance_labels(qw.johnson._colex_index(params, 56), 0)
    indicators = (label == np.arange(params.k + 1)[:, None]).astype(np.float64)
    residual = qw.validation._invariance_residual(indicators @ a.T, label)
    assert residual > 1e-12
    assert residual == pytest.approx(0.33993463423951, rel=1e-13)


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
    row = qw.asymptotics_row(qw.GraphParams(100, 2))
    d = asdict(row)
    assert list(d) == [
        "n", "N", "gamma_star", "t_run", "p_at_trun", "t_peak", "p_peak",
        "gap", "gap_ratio", "phase", "s_overlap_sq", "w_overlap_sq",
    ]
    assert row.N == 4950
    assert row.gap > 0 and row.phase > 0
    assert 0 <= row.p_at_trun <= 1 and 0 <= row.p_peak <= 1
    assert row.p_peak + 1e-12 >= row.p_at_trun


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


@pytest.mark.parametrize("jobs", [0, -3])
def test_convergence_sweep_rejects_jobs_below_one(jobs):
    with pytest.raises(DomainError, match="jobs"):
        qw.convergence_sweep(2, [100], jobs=jobs)


def _count_calls(monkeypatch, owner, name):
    # Replace the function at every module binding inside the package.
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (qw, qw.spectral, qw.coupling, qw.dynamics, qw.validation):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n,k", [(100, 2), (1000, 3), (300, 5)])
def test_asymptotics_row_solves_the_reduced_model_once(monkeypatch, n, k):
    params = qw.GraphParams(n, k)
    expected = qw.asymptotics_row(params)
    eig_calls = _count_calls(monkeypatch, qw.dynamics, "sym_eig")
    sd_calls = _count_calls(monkeypatch, qw.spectral, "spectral_data")
    row = qw.asymptotics_row(params)
    assert len(eig_calls) == 1 and eig_calls[0][0].shape == (k + 1, k + 1)
    assert len(sd_calls) == 1
    assert row == expected
    # p_at_trun and the peak are the public functions' values on the same instance
    gamma = row.gamma_star
    assert row.p_at_trun == qw.success_probability(params, gamma, row.t_run)
    assert (row.t_peak, row.p_peak) == qw.find_peak(
        params, gamma, qw.dynamics.peak_bracket(params)
    )


def test_degenerate_gap_raises():
    # k=8 at n=1e6: the true gap ~ 2*sqrt(8!)*n^-4 is below resolvable precision
    with pytest.raises(NumericalError):
        qw.asymptotics_row(qw.GraphParams(10**6, 8))


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
