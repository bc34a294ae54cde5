"""Rescaled spectral quantities and the critical hopping rate.

With eps = 1/sqrt(n) the Johnson-graph data becomes analytic in eps on
(2k-1)*eps^2 < 1:

    r_l(eps)  = eps^2 * lambda_l = (k-l)(1-(k+l)eps^2) - l*eps^2
    p_l(eps)  = eps^(k-l) * sqrt( k!(1-(2l-1)eps^2)
                                  / (l! * prod_{j=l-1}^{k-1} (1-j*eps^2)) )

The search works only at a critical hopping rate.  Its canonical value is

    gamma_star = eps^2 * sum_{l=1..k} p_l(eps)^2 / (r_0(eps) - r_l(eps)),

equivalently gamma_star = eps^2 / eta_star with eta_star the inverse of
that sum (eta_star -> k as eps -> 0).  Published rational closed forms
exist for k = 3, 4, 5 and are kept here verbatim as cross-checks; the
exact sum is always the computed value, never a truncated series.

As in :mod:`qwsearch.spectral`, a level is checked once, in :func:`r_ell`
and :func:`p_ell_scaled`; the coupling sum runs their formulas with no
check per level.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, UnsupportedParameterError
from .johnson import GraphParams, _is_int
from .spectral import _check_ell


@dataclass(frozen=True)
class ScaledParams:
    """A point (eps, k) with eps in (0, 1/sqrt(2k-1)), eps = 1/sqrt(n) when
    tied to a graph."""

    eps: float
    k: int

    def __post_init__(self):
        if not (isinstance(self.k, int) and _is_int(self.k) and self.k >= 1):
            raise DomainError(f"k must be a positive integer, got {self.k}")
        if not self.eps > 0:
            raise DomainError(f"eps must be positive, got {self.eps}")
        if not (2 * self.k - 1) * self.eps**2 < 1:
            raise DomainError(
                f"eps={self.eps} outside the analytic domain (2k-1)*eps^2 < 1"
            )


def from_graph(params: GraphParams) -> ScaledParams:
    """Scaled parameters of a concrete graph: eps = 1/sqrt(n)."""
    return ScaledParams(eps=1.0 / math.sqrt(params.n), k=params.k)


# The formulas themselves, on a checked level and x = eps^2.
def _r(k: int, x: float, ell: int) -> float:
    return (k - ell) * (1.0 - (k + ell) * x) - ell * x


def _p(k: int, eps: float, x: float, ell: int) -> float:
    num = float(math.perm(k, k - ell)) * (1.0 - (2 * ell - 1) * x)  # k!/l! exact
    den = 1.0
    for j in range(ell - 1, k):
        den *= 1.0 - j * x
    return eps ** (k - ell) * math.sqrt(num / den)


def r_ell(sp: ScaledParams, ell: int) -> float:
    """Rescaled eigenvalue (k-l)(1-(k+l)eps^2) - l*eps^2."""
    return _r(sp.k, sp.eps * sp.eps, _check_ell(sp.k, ell))


def p_ell_scaled(sp: ScaledParams, ell: int) -> float:
    """Marked-state overlap as an analytic function of eps (product form)."""
    return _p(sp.k, sp.eps, sp.eps * sp.eps, _check_ell(sp.k, ell))


def _coupling_terms(eps: float, k: int):
    # p_l^2 / (r_0 - r_l), l = 1..k, at a point checked by ScaledParams or
    # GraphParams.  k!/l! and the products in p_l(eps) leave binary64 from
    # about k = 162 on; such a k is refused rather than answered with inf.
    x = eps * eps
    r0 = _r(k, x, 0)
    try:
        terms = [_p(k, eps, x, l) ** 2 / (r0 - _r(k, x, l)) for l in range(1, k + 1)]
        if all(map(math.isfinite, terms)):
            return terms
    except OverflowError:
        pass
    raise DomainError(f"the coupling terms overflow binary64 at k={k}, eps={eps}")


def eta_star(sp: ScaledParams) -> float:
    """Inverse of sum_{l>=1} p_l^2/(r_0 - r_l); tends to k as eps -> 0.

    The terms span a dynamic range of order eps^(2k-2), so they are
    accumulated with exactly rounded summation.
    """
    return 1.0 / math.fsum(_coupling_terms(sp.eps, sp.k))


def gamma_star_scaled(sp: ScaledParams) -> float:
    """Critical hopping rate eps^2 * sum_{l>=1} p_l^2/(r_0 - r_l) = eps^2/eta_star."""
    return sp.eps * sp.eps * math.fsum(_coupling_terms(sp.eps, sp.k))


def gamma_star(params: GraphParams) -> float:
    """Critical hopping rate of J(n,k), evaluated at eps = 1/sqrt(n).

    Equals ``gamma_star_scaled(from_graph(params))``; n >= 2k already puts
    eps inside the analytic domain, so no :class:`ScaledParams` is built.
    """
    eps = 1.0 / math.sqrt(params.n)
    return eps * eps * math.fsum(_coupling_terms(eps, params.k))


# Rational closed forms, k = 3..5, as functions of x = eps^2:
#   gamma = x*(1 - k*x)*P_k(x) / (lead_k * prod_{j=1..k-1} (1 - j*x)^2)
_CLOSED_NUM = {
    3: (2.0, 1.0, 16.0, -52.0, 24.0),
    4: (3.0, -11.0, 33.0, 47.0, -660.0, 1116.0, -432.0),
    5: (12.0, -117.0, 532.0, -1107.0, 2508.0, -22588.0, 80448.0, -99648.0, 34560.0),
}
_CLOSED_LEAD = {3: 6.0, 4: 12.0, 5: 60.0}


def gamma_closed_form(sp: ScaledParams) -> float:
    """The published rational expression for gamma_star, k in {3, 4, 5} only."""
    if sp.k not in _CLOSED_NUM:
        raise UnsupportedParameterError(
            f"no closed form for k={sp.k}; available for k in (3, 4, 5)"
        )
    x = sp.eps * sp.eps
    poly = 0.0
    for c in reversed(_CLOSED_NUM[sp.k]):
        poly = poly * x + c
    den = _CLOSED_LEAD[sp.k]
    for j in range(1, sp.k):
        den *= (1.0 - j * x) ** 2
    return x * (1.0 - sp.k * x) * poly / den
