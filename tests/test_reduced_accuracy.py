"""Reduced-model accuracy against a 300-digit reference, and the secular
solver's identities.

The reference (``conftest.mp_reduced``) decomposes the shifted matrix
gamma*diag(l(n-l+1)) - p p^T from exact integer spectra in mpmath, at the
row's own float gamma*.  The package finds the same levels as roots of the
secular equation in plain floats, each an offset from its nearest pole, so
the bounds hold at every n up to 1e18: no eps*sqrt(N) growth is allowed.
From k(n-k+1) = 2**53 up, the solver rounds its pole offsets from exact
integer products, and the grid's n = 1e16 and 1e18 rows run that branch.
"""

import math

import pytest
from conftest import mp_reduced
from hypothesis import given
from hypothesis import strategies as st

import qwsearch as qw

pytest.importorskip("mpmath")

EPS = 2.0**-52
REL_TOL = 1e-13  # gap and phase
P_ABS_TOL = 1e-15  # p_at_trun, p_peak and the ground state's overlaps
# The reference's digits.  The weights fall to 3e-167 at J(1e16, 8) and
# 3e-189 at J(1e18, 8); 120 digits leave the former 7.5e-10 off and the
# latter with the wrong sign, while 300 and 600 digits agree to the last
# printed digit there.  mp_reduced refuses fewer than 40 - log10(min_j
# |w_j|) digits, which on this grid is at most 229, at J(1e18, 8).
REF_DPS = 300


def _grid():
    for k in range(1, 9):
        ns = {2 * k, 2 * k + 1, 3 * k + 2, 100, 10**3, 10**4, 10**6, 10**8, 10**10, 10**12,
              10**16, 10**18}
        for n in sorted(ns):
            if n >= 2 * k and math.comb(n, k) < 1e300:
                yield k, n


GRID = list(_grid())


@pytest.mark.parametrize("k, n", GRID, ids=[f"k{k}-n{n}" for k, n in GRID])
def test_sweep_row_matches_high_precision_reference(k, n):
    params = qw.GraphParams(n, k)
    row = qw.asymptotics_row(params)
    ref = mp_reduced(params, row.gamma_star, (row.t_run, row.t_peak), dps=REF_DPS)
    assert abs(row.gap - ref["gap"]) <= REL_TOL * ref["gap"]
    assert abs(row.phase - ref["gap"] * row.t_run) <= REL_TOL * ref["gap"] * row.t_run
    assert abs(row.p_at_trun - ref["probs"][0]) <= P_ABS_TOL
    assert abs(row.p_peak - ref["probs"][1]) <= P_ABS_TOL
    assert abs(row.s_overlap_sq - ref["s_overlap_sq"]) <= P_ABS_TOL
    assert abs(row.w_overlap_sq - ref["w_overlap_sq"]) <= P_ABS_TOL
    levels, weights, *_ = qw.reduced._solve(qw.spectral_data(params), row.gamma_star)
    for got, want in zip(levels, ref["levels"]):
        assert abs(got - want) <= 1e-15 * abs(want)
    for got, want in zip(weights, ref["weights"]):
        assert abs(got - want) <= 1e-14 * abs(want)


def test_the_reference_refuses_too_few_digits():
    # At its default 120 digits, J(1e16, 8)'s smallest weight, 3.2e-167,
    # would come out 7.5e-10 off.
    params = qw.GraphParams(10**16, 8)
    with pytest.raises(AssertionError, match="needs 207 digits at J"):
        mp_reduced(params, qw.gamma_star(params), ())
    assert mp_reduced(params, qw.gamma_star(params), (), dps=207)["weights"]


@pytest.mark.parametrize("gamma_scale", [0.125, 0.999, 1.001, 8.0])
@pytest.mark.parametrize("k, n", [(3, 10**4), (5, 300), (8, 10**6)])
def test_a_given_gamma_is_solved_at_that_float(k, n, gamma_scale):
    # 1 - S is formed exactly at any float gamma, not only at gamma*.
    params = qw.GraphParams(n, k)
    gamma = qw.gamma_star(params) * gamma_scale
    t = qw.run_time(params)
    ref = mp_reduced(params, gamma, (t,), dps=200)
    assert abs(qw.success_probability(params, gamma, t) - ref["probs"][0]) <= 1e-13


def _instances():
    # n log-uniform from 2k to 1e18, and every n from 2k to 3k+2.
    def draw(k):
        return st.one_of(
            st.integers(2 * k, 3 * k + 2),
            st.floats(0.0, 18.0).map(lambda x: max(2 * k, int(10**x))),
        ).map(lambda n: (k, n))

    return st.integers(1, 8).flatmap(draw)


@given(_instances())
def test_secular_roots_interlace_and_keep_the_identities(instance):
    k, n = instance
    params = qw.GraphParams(n, k)
    sd = qw.spectral_data(params)
    gamma = qw.gamma_star(params)
    levels, weights, sums, offsets, steps = qw.reduced._solve(sd, gamma)
    assert 1 <= steps <= qw.reduced._SECULAR_STEPS
    # mu_0 in [-1, 0) and mu_j in (gamma d_(j-1), gamma d_j): root j's offset
    # delta_j is taken from pole i = j if negative, else from pole j-1, and
    # lies strictly between the offsets gamma (d_(j-1) - d_i) and gamma (d_j
    # - d_i) of its two poles, each rounded once from the exact integer
    # product as the solver rounds it; mu_j is delta_j less pole 0's offset.
    assert -1.0 <= levels[0] < 0.0
    a, b = gamma.as_integer_ratio()
    d = [l * (n - l + 1) for l in range(k + 1)]
    for j, delta in enumerate(offsets):
        i = j if delta < 0 else j - 1
        pole = [(dl - d[i]) * a / b for dl in d]
        assert (j == 0 or pole[j - 1] < delta) and delta < pole[j]
        assert levels[j] == delta - pole[0]
    assert list(levels) == sorted(levels)
    # sum_j w_j = <p|e_0> = p_0 and sum_j v_0j^2 = 1, v_0j^2 = p_0^2/(mu_j^2 R_j).
    p0 = sd.overlaps[0]
    assert abs(math.fsum(weights) - p0) <= 8 * EPS * math.fsum(map(abs, weights))
    starts = [(p0 / level) ** 2 / r for level, r in zip(levels, sums)]
    assert abs(math.fsum(starts) - 1.0) <= 8 * EPS


@pytest.mark.parametrize("k", range(1, 9))
def test_every_small_n_answers(k):
    # The two lowest roots of the smallest graphs, where a fixed-point
    # iteration E = +-p_0/sqrt(T(E)) cycles (J(4,2), J(5,2)).
    rows = qw.convergence_sweep(k, range(2 * k, 3 * k + 3))
    assert all(row.gap > 0 and 0 <= row.p_at_trun <= 1 and 0 <= row.p_peak <= 1 for row in rows)
