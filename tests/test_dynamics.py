import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import centred, peak_beta, probs_at, scan_max
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qwsearch as qw
from qwsearch.errors import BracketError, DomainError, NumericalError


def evolve(dec, psi, t):
    """Reference exp(-iHt) psi, H given by its eigendecomposition."""
    values, vectors = dec
    return vectors @ (np.exp(-1j * values * t) * (vectors.T @ psi))


def energy(m, psi):
    """Reference <psi| M |psi> for a real symmetric M and a complex state."""
    return float(np.real(np.conj(psi) @ (m @ psi)))


def random_symmetric(rng, dim):
    m = rng.standard_normal((dim, dim))
    return (m + m.T) / 2


def test_sym_eig_scalar():
    values, vectors = qw.sym_eig(np.array([[4.5]]))
    assert np.array_equal(values, [4.5])
    assert np.array_equal(np.abs(vectors), [[1.0]])


def test_sym_eig_diagonal_permutation():
    values, vectors = qw.sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(values, [1.0, 2.0, 3.0])
    assert np.array_equal(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])


def test_sym_eig_roundtrip_reduced():
    params = qw.GraphParams(6, 3)
    m = qw.reduced_hamiltonian(params, qw.gamma_star(params))
    values, vectors = qw.sym_eig(m)
    recon = vectors @ np.diag(values) @ vectors.T
    assert np.max(np.abs(recon - m)) <= 1e-10


def test_sym_eig_random_contracts():
    rng = np.random.default_rng(42)
    for dim in (2, 5, 17, 60):
        m = random_symmetric(rng, dim)
        values, vectors = qw.sym_eig(m)
        assert np.all(np.diff(values) >= 0)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(dim))) <= 1e-12
        resid = np.max(np.abs(m @ vectors - vectors * values))
        assert resid <= 1e-10 * (1 + np.max(np.abs(m)))


def _last_value_off(values, vectors):
    values[-1] += 1e-6
    return values, vectors


def _last_column_scaled(values, vectors):
    vectors[:, -1] *= 1 + 1e-9
    return values, vectors


def _last_value_nan(values, vectors):
    values[-1] = np.nan
    return values, vectors


@pytest.mark.parametrize("dim", [4, 296])
@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_last_value_off, r"reconstruction 1\.\d+e-06"),
        (_last_column_scaled, r"orthonormality [12]\.\d+e-09"),
        (_last_value_nan, r"reconstruction nan"),
    ],
)
def test_sym_eig_refuses_a_wrong_decomposition(monkeypatch, dim, corrupt, message):
    # A correct decomposition passes both gates; one with a single wrong
    # eigenvalue or a single non-normal eigenvector is refused by the gate
    # that reads it.
    rng = np.random.default_rng(7)
    m = random_symmetric(rng, dim)
    values, vectors = qw.sym_eig(m)
    resid = np.max(np.abs(m @ vectors - vectors * values))
    assert resid <= 1e-10 * (1 + np.max(np.abs(m)))
    eigh = np.linalg.eigh

    def corrupted(matrix):
        values, vectors = eigh(matrix)
        return corrupt(values.copy(), vectors.copy())

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    # Diagonal input: V = I, so each defect sits in the last row or column.
    with pytest.raises(qw.NumericalError, match=message):
        qw.sym_eig(np.diag(np.arange(dim, dtype=float)))


def test_sym_eig_rejects_bad_shapes():
    with pytest.raises(DomainError):
        qw.sym_eig(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        qw.sym_eig(np.zeros(4))
    with pytest.raises(DomainError):
        qw.sym_eig(np.zeros((0, 0)))


@pytest.mark.parametrize(
    "matrix",
    [
        [[1, 1j], [-1j, 2]],  # eigenvalues 0.382 and 2.618, not the [1, 2] of its real part
        np.eye(2, dtype=complex),
        np.eye(2, dtype=bool),
        np.eye(2, dtype=object),
        [["a"]],
    ],
    ids=["hermitian", "complex-eye", "bool", "object", "str"],
)
def test_sym_eig_refuses_matrices_that_are_not_real(matrix):
    # Refused by dtype before conversion: a complex matrix would lose its
    # imaginary part with only a warning, and a bool one read as 0/1.
    with pytest.raises(DomainError, match="expected a real matrix"):
        qw.sym_eig(matrix)


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64, np.float32])
def test_sym_eig_accepts_integer_and_float_matrices(dtype):
    matrix = np.array([[2, 1], [1, 2]], dtype=dtype)
    assert qw.sym_eig(matrix)[0].tolist() == qw.sym_eig(matrix.astype(float))[0].tolist()


def test_sym_eig_stack_is_each_member_bit_for_bit():
    # one eigh call on a (2, d, d) stack returns what two 2-D calls return,
    # as the plain (values, vectors) pair that eigh itself returns
    rng = np.random.default_rng(11)
    for dim in range(1, 8):
        stack = np.stack([random_symmetric(rng, dim), random_symmetric(rng, dim)])
        dec = qw.sym_eig(stack)
        assert type(dec) is tuple and len(dec) == 2
        assert all(type(part) is np.ndarray for part in dec)
        for part, expected in zip(dec, np.linalg.eigh(stack)):
            assert part.dtype == expected.dtype and part.tobytes() == expected.tobytes()
        stack_values, stack_vectors = dec
        assert stack_values.shape == (2, dim) and stack_vectors.shape == (2, dim, dim)
        for member, values, vectors in zip(stack, stack_values, stack_vectors):
            alone_values, alone_vectors = qw.sym_eig(member)
            assert values.tobytes() == alone_values.tobytes()
            assert vectors.tobytes() == alone_vectors.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sym_eig_stack_refuses_one_non_finite_member(bad):
    stack = np.stack([np.eye(3), np.eye(3)])
    stack[1, 0, 2] = stack[1, 2, 0] = bad
    with pytest.raises(DomainError, match="non-finite"):
        qw.sym_eig(stack)


def test_sym_eig_stack_refuses_one_wrong_member(monkeypatch):
    stack = np.stack([np.diag([0.0, 1.0, 2.0])] * 2)
    assert qw.sym_eig(stack)[0].shape == (2, 3)
    eigh = np.linalg.eigh

    def corrupted(matrix):
        values, vectors = eigh(matrix)
        values = values.copy()
        values[1, -1] += 1e-6
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(qw.NumericalError, match=r"reconstruction 1\.\d+e-06"):
        qw.sym_eig(stack)


@pytest.mark.parametrize("shape", [(), (4,), (0, 3, 3), (2, 0, 0), (2, 2, 3), (2, 3, 2)])
def test_sym_eig_rejects_bad_stack_shapes(shape):
    with pytest.raises(DomainError, match="non-empty square"):
        qw.sym_eig(np.zeros(shape))


def test_evolve_identity_at_zero():
    rng = np.random.default_rng(0)
    m = random_symmetric(rng, 6)
    dec = qw.sym_eig(m)
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    psi /= np.linalg.norm(psi)
    assert np.max(np.abs(evolve(dec, psi, 0.0) - psi)) <= 1e-14


def test_evolve_time_reversal_and_norm():
    rng = np.random.default_rng(1)
    m = random_symmetric(rng, 8)
    dec = qw.sym_eig(m)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    for t in (0.3, 4.7, 81.0):
        out = evolve(dec, psi, t)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
        back = evolve(dec, out, -t)
        assert np.max(np.abs(back - psi)) <= 1e-12


def test_evolve_semigroup():
    rng = np.random.default_rng(2)
    m = random_symmetric(rng, 7)
    dec = qw.sym_eig(m)
    psi = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    psi /= np.linalg.norm(psi)
    for t1, t2 in ((0.2, 1.3), (5.0, 11.0), (30.0, 17.5)):
        once = evolve(dec, psi, t1 + t2)
        twice = evolve(dec, evolve(dec, psi, t1), t2)
        assert np.max(np.abs(once - twice)) <= 1e-12


@pytest.mark.parametrize("n,k", [(2, 1), (6, 3), (30, 2)])
def test_success_probability_at_zero(n, k):
    params = qw.GraphParams(n, k)
    p0 = qw.success_probability(params, qw.gamma_star(params), 0.0)
    assert p0 == pytest.approx(1 / params.num_vertices, rel=1e-12)


def test_success_probability_k2_closed_form():
    # J(2,1) at the critical coupling: p(t) = 7/10 - cos(sqrt(5) t / 2) / 5,
    # derived by hand from the 2x2 eigenproblem
    params = qw.GraphParams(2, 1)
    assert qw.gamma_star(params) == 0.25
    for t in np.linspace(0.0, 10.0, 23):
        expected = 0.7 - 0.2 * math.cos(math.sqrt(5) * t / 2)
        assert qw.success_probability(params, 0.25, float(t)) == pytest.approx(
            expected, abs=1e-12
        )


def test_success_probability_rejects_negative_time():
    params = qw.GraphParams(6, 3)
    with pytest.raises(DomainError):
        qw.success_probability(params, 0.1, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_and_couplings_are_refused(bad):
    params = qw.GraphParams(6, 3)
    gamma = qw.gamma_star(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(DomainError):
            qw.success_probability(params, gamma, bad)
        for t0, t1 in ((0.0, bad), (bad, 1.0), (bad, bad)):
            with pytest.raises(DomainError):
                qw.scan(params, gamma, t0, t1, 11)
            with pytest.raises(DomainError):
                qw.find_peak(params, gamma, (t0, t1))
        # a finite coupling too large to solve is refused like a non-finite one
        for bad_gamma in (bad, 1e308):
            with pytest.raises(DomainError):
                qw.success_probability(params, bad_gamma, 1.0)
            with pytest.raises(DomainError):
                qw.reduced_hamiltonian(params, bad_gamma)
            with pytest.raises(DomainError):
                qw.full_hamiltonian(params, bad_gamma, 0)


@pytest.mark.parametrize("n,k", [(2, 1), (6, 3), (14, 6), (10**6, 3)])
def test_couplings_up_to_the_bound_are_solved(n, k):
    # gamma*k(n-k+1) < 1e300 is accepted and solved without an overflow
    # warning; at the bound the coupling is refused.
    params = qw.GraphParams(n, k)
    bound = 1e300 / (k * (n - k + 1))
    below = float(np.nextafter(bound, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        levels = qw.validation._reduced_curve(qw.spectral_data(params), below)[0]
        assert np.all(np.isfinite(levels))
        assert 0.0 <= qw.success_probability(params, below, 1.0) <= 1.0
        if params.num_vertices <= 20:
            assert np.all(np.isfinite(qw.sym_eig(qw.full_hamiltonian(params, below, 0))[0]))
        with pytest.raises(DomainError, match="too large"):
            qw.success_probability(params, bound * (1 + 1e-15), 1.0)


def test_run_time_values():
    assert qw.run_time(qw.GraphParams(100, 1)) == pytest.approx(5 * math.pi, rel=1e-15)
    assert qw.run_time(qw.GraphParams(100, 2)) == pytest.approx(
        100 * math.pi / (2 * math.sqrt(2)), rel=1e-15
    )
    assert qw.run_time(qw.GraphParams(100, 2)) == pytest.approx(111.0721, abs=1e-4)


def test_run_time_approaches_grover_time():
    # n^k/k! ~ C(n,k): run_time / (pi sqrt(N) / 2) -> 1 for fixed k
    k = 3
    last = None
    for n in (10, 100, 1000, 10000):
        params = qw.GraphParams(n, k)
        ratio = qw.run_time(params) / (math.pi * math.sqrt(params.num_vertices) / 2)
        if last is not None:
            assert abs(ratio - 1) < abs(last - 1)
        last = ratio
    assert last == pytest.approx(1.0, abs=2e-4)


def test_scan_grid_and_endpoints():
    params = qw.GraphParams(6, 3)
    gamma = qw.gamma_star(params)
    res = qw.scan(params, gamma, 0.0, 5.0, 2)
    assert np.array_equal(res.times, [0.0, 5.0])
    assert res.probs[0] == pytest.approx(1 / 20, rel=1e-12)
    res = qw.scan(params, gamma, 0.0, 12.0, 101)
    assert len(res.times) == 101
    assert np.all((res.probs >= 0.0) & (res.probs <= 1.0))
    with pytest.raises(DomainError):
        qw.scan(params, gamma, 3.0, 3.0, 10)
    with pytest.raises(DomainError):
        qw.scan(params, gamma, 0.0, 1.0, 1)
    with pytest.raises(DomainError):
        qw.scan(params, gamma, -1.0, 1.0, 4)


def test_scan_max_matches_full_space():
    params = qw.GraphParams(6, 3)
    gamma = qw.gamma_star(params)
    t1 = 2 * qw.run_time(params)
    reduced = qw.scan(params, gamma, 0.0, t1, 101)
    h = qw.full_hamiltonian(params, gamma, 0)
    dec = qw.sym_eig(h)
    start = np.full(20, 1 / math.sqrt(20))
    full_probs = []
    for t in reduced.times:
        psi = evolve(dec, start, float(t))
        full_probs.append(abs(psi[0]) ** 2)
    assert abs(max(full_probs) - float(np.max(reduced.probs))) <= 1e-9


def test_find_peak_k2_exact_values():
    # peak of 7/10 - cos(sqrt(5) t/2)/5: t = 2 pi / sqrt(5), p = 9/10
    params = qw.GraphParams(2, 1)
    t_peak, p_peak = qw.find_peak(params, 0.25, (0.0, 2 * qw.run_time(params)))
    assert t_peak == pytest.approx(2 * math.pi / math.sqrt(5), rel=1e-12)
    assert p_peak == pytest.approx(0.9, abs=1e-12)
    assert p_peak >= qw.success_probability(params, 0.25, qw.run_time(params))


def test_find_peak_63_near_run_time():
    params = qw.GraphParams(6, 3)
    gamma = qw.gamma_star(params)
    t_run = qw.run_time(params)
    t_peak, p_peak = qw.find_peak(params, gamma, (0.0, 2 * t_run))
    # far from asymptopia at n=6; the ratio is recorded loosely
    assert 0.7 <= t_peak / t_run <= 1.3
    assert p_peak >= qw.success_probability(params, gamma, t_run)


def test_find_peak_bracket_errors():
    params = qw.GraphParams(2, 1)
    with pytest.raises(BracketError):
        qw.find_peak(params, 0.25, (0.0, 1.0))  # p rising, argmax at right edge
    with pytest.raises(BracketError):
        qw.find_peak(params, 0.25, (3.0, 4.5))  # p falling, argmax at left edge
    with pytest.raises(DomainError):
        qw.find_peak(params, 0.25, (2.0, 1.0))


# Graphs with at most 56 vertices: the dense scans below stay cheap.
_SMALL_GRAPHS = [(n, k) for k in (1, 2, 3) for n in range(2 * k, 57) if math.comb(n, k) <= 56]


@settings(max_examples=150)
@given(
    graph=st.sampled_from(_SMALL_GRAPHS),
    scale=st.floats(-3.0, 3.0),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_find_peak_is_within_beta_of_dense_scans(graph, scale, ends):
    # gamma in [gamma*/8, 8 gamma*], a bracket inside [0, 4 t_run]: the peak
    # is at least the dense maximum less beta, or the bracket is refused
    # exactly when an endpoint holds that maximum, to within beta.
    params = qw.GraphParams(*graph)
    gamma = qw.gamma_star(params) * 2.0**scale
    t0, t1 = sorted(4 * qw.run_time(params) * x for x in ends)
    assume(t1 - t0 > 1e-6)
    levels, weights, _ = qw.validation._reduced_curve(qw.spectral_data(params), gamma)
    beta = peak_beta(levels, weights, t1)
    dense = scan_max(levels, weights, t0, t1, 20_001)
    edge = scan_max(levels, weights, t0, t1, 2)
    try:
        t_peak, p_peak = qw.find_peak(params, gamma, (t0, t1))
    except BracketError:
        assert edge >= dense - beta
    else:
        assert t0 < t_peak < t1
        assert p_peak >= dense - beta and p_peak + beta >= edge


def test_find_peak_refuses_a_bracket_that_needs_too_many_samples():
    # (0, 1e9) at gamma = 1 on J(10,4) needs over MAX_SCAN_SAMPLES samples:
    # refused before any sample table is built.
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="samples"):
            qw.find_peak(qw.GraphParams(10, 4), 1.0, (0.0, 1e9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000


def _phase_rounding_bound(levels, t1):
    # |dp| <= 2 * max phase error, since |amplitude| <= 1 and sum |w_j| <= 1.
    return 8 * np.finfo(float).eps * (1 + np.max(np.abs(levels)) * t1)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n_scale", [None, 100, 1000])
@pytest.mark.parametrize("m", [2, 101, 2001])
def test_probs_on_grid_matches_pointwise(k, n_scale, m):
    params = qw.GraphParams(n_scale or 2 * k, k)
    gamma = qw.gamma_star(params)
    levels, weights, _ = qw.validation._reduced_curve(qw.spectral_data(params), gamma)
    t_end = 2 * qw.run_time(params)
    for t0, t1 in ((0.0, t_end), (0.3 * t_end, 0.7 * t_end)):
        grid = qw.dynamics._probs_on_grid(np.array(levels), np.array(weights), t0, t1, m)
        direct = probs_at(levels, weights, np.linspace(t0, t1, m))
        assert grid.shape == (m,)
        assert np.max(np.abs(grid - direct)) <= _phase_rounding_bound(levels, t1)


def test_scan_probs_match_success_probability():
    params = qw.GraphParams(1000, 3)
    gamma = qw.gamma_star(params)
    res = qw.scan(params, gamma, 10.0, 2 * qw.run_time(params), 37)
    assert np.array_equal(res.times, np.linspace(10.0, 2 * qw.run_time(params), 37))
    levels, _, _ = qw.validation._reduced_curve(qw.spectral_data(params), gamma)
    bound = _phase_rounding_bound(levels, res.times[-1])
    for t, p in zip(res.times, res.probs):
        assert abs(p - qw.success_probability(params, gamma, float(t))) <= bound


@pytest.mark.parametrize("n,k", [(6, 3), (1000, 2), (300, 4)])
def test_scalar_refinement_matches_pointwise(n, k):
    # _curve_at's p, p' and p'' on the centred levels against numpy's
    # amplitude A = sum_j w_j e^{i e_j t} and its derivatives.
    params = qw.GraphParams(n, k)
    gamma = qw.gamma_star(params)
    levels, weights, _ = qw.validation._reduced_curve(qw.spectral_data(params), gamma)
    e = centred(levels, weights)
    terms = tuple((x, y, y * x, y * x * x) for x, y in zip(e.tolist(), weights))
    weights = np.array(weights)
    times = np.linspace(0.0, 2 * qw.run_time(params), 57)
    rows = np.array([qw.reduced._curve_at(terms, float(t)) for t in times])
    assert np.array_equal(rows[:, 0], times)
    phases = np.exp(1j * np.outer(times, e))
    amp, amp1, amp2 = (phases @ (weights * (1j * e) ** r) for r in range(3))
    p = np.abs(amp) ** 2
    d1 = 2 * np.real(np.conj(amp) * amp1)
    d2 = 2 * (np.abs(amp1) ** 2 + np.real(np.conj(amp) * amp2))
    bound = _phase_rounding_bound(e, times[-1])
    scale = np.max(np.abs(e))
    assert np.max(np.abs(rows[:, 1] - p)) <= bound
    assert np.max(np.abs(rows[:, 2] - d1)) <= bound * scale
    assert np.max(np.abs(rows[:, 3] - d2)) <= bound * scale**2
    direct = probs_at(levels, weights, times)
    assert np.max(np.abs(rows[:, 1] - direct)) <= _phase_rounding_bound(levels, times[-1])


def test_scalar_refinement_clamps_and_warns_like_arrays():
    # p = 0.72 (1 + cos t) peaks at 1.44 at t = 2 pi: find_peak's value is
    # clamped to 1 with the warning that arrays give.
    big = (0.6, 0.6)  # |amplitude|^2 up to 1.44
    with pytest.warns(RuntimeWarning, match="overshoots 1"):
        t_peak, p_peak = qw.reduced._peak(qw.reduced._curve([0.0, 1.0], [0.6, 0.6]), 1.0, 10.0)
    assert p_peak == 1.0 and t_peak == pytest.approx(2 * math.pi, rel=1e-12)
    with pytest.warns(RuntimeWarning, match="overshoots 1"):
        assert probs_at((0.0, 1.0), big, np.array([0.0]))[0] == 1.0
    tiny = 0.5 + 1e-12  # overshoot about 2e-12, below the 1e-10 warning level
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert qw.reduced._peak(qw.reduced._curve([0.0, 1.0], [0.5, tiny]), 1.0, 10.0)[1] == 1.0
        assert probs_at((0.0, 1.0), (0.5, tiny), np.array([0.0]))[0] == 1.0


def test_clamp_probs_leaves_probabilities_untouched_and_clips_overshoot():
    # Warnings are errors in this suite, so values in [0, 1] raise none.
    probs = np.array([0.0, 5e-324, 0.25, 1.0 - 2**-53, 1.0])
    before = probs.copy()
    assert qw.dynamics._clamp_probs(probs) is probs
    assert probs.tobytes() == before.tobytes()
    over = np.array([0.5, 1.0 + 1e-9])
    with pytest.warns(RuntimeWarning, match="overshoots 1 by 1.000e-09"):
        assert qw.dynamics._clamp_probs(over).tolist() == [0.5, 1.0]
    slight = np.array([1.0 + 1e-12, 0.5])  # below the 1e-10 warning level
    assert qw.dynamics._clamp_probs(slight).tolist() == [1.0, 0.5]


def test_energy_conservation_along_scan():
    params = qw.GraphParams(6, 3)
    gamma = qw.gamma_star(params)
    m = qw.reduced_hamiltonian(params, gamma)
    dec = qw.sym_eig(m)
    psi0 = np.zeros(params.k + 1, dtype=complex)
    psi0[0] = 1.0
    e0 = energy(m, psi0)
    for t in np.linspace(0.0, 2 * qw.run_time(params), 50):
        psi = evolve(dec, psi0, float(t))
        assert abs(energy(m, psi) - e0) <= 1e-10


def test_probability_curve_is_trig_polynomial():
    # p(t) uses only the pairwise eigenvalue differences as frequencies:
    # at most C(k+2, 2) of them
    params = qw.GraphParams(6, 3)
    gamma = qw.gamma_star(params)
    values, _ = qw.sym_eig(qw.reduced_hamiltonian(params, gamma))
    freqs = sorted(
        {0.0}
        | {abs(a - b) for i, a in enumerate(values) for b in values[:i]}
    )
    assert len(freqs) <= math.comb(params.k + 2, 2)
    res = qw.scan(params, gamma, 0.0, 4 * qw.run_time(params), 400)
    design = np.cos(np.outer(res.times, freqs))
    coef, *_ = np.linalg.lstsq(design, res.probs, rcond=None)
    assert np.max(np.abs(design @ coef - res.probs)) <= 1e-9
