import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qwsearch as qw
from qwsearch.coupling import _CLOSED_LEAD, _CLOSED_NUM, ScaledParams, from_graph
from qwsearch.errors import DomainError, UnsupportedParameterError


def exact_gamma_star(n, k):
    # sum_{l>=1} m_l / (N l(n-l+1)), from binomials alone, as a Fraction.
    n_vert = math.comb(n, k)
    return sum(
        Fraction(math.comb(n, l) - math.comb(n, l - 1), n_vert * l * (n - l + 1))
        for l in range(1, k + 1)
    )


def exact_closed_form(n, k):
    # The published polynomial of gamma_closed_form, in Fractions at x = 1/n.
    x = Fraction(1, n)
    poly = sum(Fraction(int(c)) * x**i for i, c in enumerate(_CLOSED_NUM[k]))
    den = int(_CLOSED_LEAD[k]) * math.prod((1 - j * x) ** 2 for j in range(1, k))
    return x * (1 - k * x) * poly / den


def test_scaled_params_domain():
    ScaledParams(eps=0.3, k=3)
    with pytest.raises(DomainError):
        ScaledParams(eps=0.0, k=3)
    with pytest.raises(DomainError):
        ScaledParams(eps=-0.1, k=1)
    with pytest.raises(DomainError):
        ScaledParams(eps=0.45, k=3)  # (2k-1)*eps^2 = 1.0125 > 1
    with pytest.raises(DomainError):
        ScaledParams(eps=0.1, k=0)


def test_gamma_star_k1():
    for n in (2, 10, 100, 10**6):
        params = qw.GraphParams(n, 1)
        assert qw.gamma_star(params) == (n - 1) / n**2


def test_gamma_star_k2():
    # m_1/(N d_1) = 2/n^2 and m_2/(N d_2) = (n-3)/(2(n-1)^2), by hand.
    for n in (4, 5, 10, 100, 10**6, 10**15):
        params = qw.GraphParams(n, 2)
        exact = Fraction(2, n**2) + Fraction(n - 3, 2 * (n - 1) ** 2)
        assert qw.gamma_star(params) == float(exact)


@pytest.mark.parametrize("k", range(1, 9))
@given(st.integers(0, 10**15))
def test_gamma_star_is_the_correctly_rounded_exact_sum(k, offset):
    n = 2 * k + offset
    assert qw.gamma_star(qw.GraphParams(n, k)) == float(exact_gamma_star(n, k))


@given(st.integers(1, 200).flatmap(lambda k: st.tuples(st.integers(2 * k, 3 * k), st.just(k))))
def test_gamma_star_is_the_correctly_rounded_exact_sum_at_large_k(instance):
    # k >= 162 overflowed the float form of the sum; n = 2k is the extreme.
    n, k = instance
    for m in (n, 2 * k):
        assert qw.gamma_star(qw.GraphParams(m, k)) == float(exact_gamma_star(m, k))


# The largest n of the sweep benchmark per k, as in test_pinned_rows.
_SWEEP_TOP = {2: 10**8, 3: 2511886, 4: 79432, 5: 5011, 6: 630}


@pytest.mark.parametrize("k", sorted(_SWEEP_TOP))
def test_gamma_star_is_exact_on_the_sweep_domain(k):
    # The domain where a rounded-term float sum was up to 5 ulp off.
    top = _SWEEP_TOP[k]
    grid = {*range(2 * k, min(top, 300) + 1)}
    grid |= {round(top ** (i / 40)) for i in range(41)} - {*range(2 * k)}
    for n in sorted(grid):
        assert qw.gamma_star(qw.GraphParams(n, k)) == float(exact_gamma_star(n, k)), n


@pytest.mark.parametrize("k", range(1, 9))
def test_n_gamma_star_tends_to_one_over_k(k):
    # n*gamma* = 1/k + c_k/n + O(1/n^2): the l = k term gives (1 - 1/n)/k and
    # the l = k-1 term k/((k-1)n), so c_k = k/(k-1) - 1/k for k >= 2; k = 1
    # is exactly 1 - 1/n.  The O(1/n^2) rest, times n^2, was measured below
    # k + 1 for k <= 8 and is asserted with 2x slack.
    c = k / (k - 1) - 1 / k if k > 1 else -1.0
    for n in (10**3, 10**4, 10**5, 10**6):
        slope = n * (n * qw.gamma_star(qw.GraphParams(n, k)) - 1 / k)
        assert abs(slope - c) <= 2 * (k + 1) / n


def test_gamma_star_matches_closed_form_k3_n100():
    params = qw.GraphParams(100, 3)
    closed = qw.gamma_closed_form(from_graph(params))
    assert qw.gamma_star(params) == pytest.approx(closed, rel=1e-12)


def test_gamma_closed_form_hand_value_k3():
    # eps^2 = 0.01: x(1-3x)(2 + x + 16x^2 - 52x^3 + 24x^4) / (6(1-x)^2(1-2x)^2)
    x = 0.01
    hand = (x * (1 - 3 * x) * (2 + x + 16 * x**2 - 52 * x**3 + 24 * x**4)) / (
        6 * (1 - x) ** 2 * (1 - 2 * x) ** 2
    )
    assert qw.gamma_closed_form(ScaledParams(eps=0.1, k=3)) == pytest.approx(
        hand, rel=1e-13
    )


@pytest.mark.parametrize("k", [3, 4, 5])
def test_gamma_closed_form_equals_sum_on_grid(k):
    # The published polynomial is gamma* exactly, as a rational in 1/n;
    # evaluated in binary64 it stays within 1e-12 of the rounded gamma*.
    for n in (*range(2 * k, 200), 10**3, 10**6, 10**9, 10**12):
        params = qw.GraphParams(n, k)
        assert exact_closed_form(n, k) == exact_gamma_star(n, k)
        star = qw.gamma_star(params)
        assert qw.gamma_closed_form(from_graph(params)) == pytest.approx(star, rel=1e-12)


def test_gamma_closed_form_unsupported_k():
    for k in (1, 2, 6, 7):
        with pytest.raises(UnsupportedParameterError):
            qw.gamma_closed_form(ScaledParams(eps=0.05, k=k))


def test_gamma_k3_series_residual_scaling():
    # gamma* - x/3 - 7x^2/6 at x = 1/n, in exact Fractions, shrinks like
    # (29/6) x^3: n^3 * resid - 29/6 was measured within 1.17/n for n >= 100
    # and is asserted within 2/n; the ratio per factor 4 in n is 64.099
    # at n = 100.
    def resid(n):
        x = Fraction(1, n)
        return exact_gamma_star(n, 3) - x / 3 - 7 * x**2 / 6

    for n in (100, 400, 1600, 10**4, 10**6):
        assert abs(n**3 * resid(n) - Fraction(29, 6)) <= Fraction(2, n)
    ratio = resid(100) / resid(400)
    assert 64 * 0.995 <= ratio <= 64 * 1.005


def test_gamma_star_positive_across_domain():
    for k in range(1, 9):
        for n in (2 * k, 4 * k, 100 * k):
            assert qw.gamma_star(qw.GraphParams(n, k)) > 0
