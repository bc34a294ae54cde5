"""The critical hopping rate of J(n,k), and its published closed forms.

The search works only at a critical hopping rate.  With the gaps
d_l = lambda_0 - lambda_l = l(n-l+1) and the overlaps p_l^2 = m_l/N of
:mod:`qwsearch.spectral`, it is the finite sum of exact rationals

    gamma_star = sum_{l=1..k} m_l / (N * d_l).

:func:`gamma_star` puts that sum over the common denominator N * prod d_l
and divides once, so the float it returns is the correctly rounded value
of the exact rational, at any k that :class:`GraphParams` accepts.

Published rational closed forms exist for k = 3, 4, 5 in x = eps^2 = 1/n,
and are kept here verbatim as cross-checks.
"""

import math
from dataclasses import dataclass

from .domain import GraphParams, _int, _real
from .errors import DomainError, UnsupportedParameterError
from .spectral import _multiplicity


@dataclass(frozen=True)
class ScaledParams:
    """The argument of the closed forms: eps in (0, 1/sqrt(2k-1)), with
    eps = 1/sqrt(n) when tied to a graph."""

    eps: float
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _int(self.k, "k", 1))
        object.__setattr__(self, "eps", _real(self.eps, "eps"))
        if not self.eps > 0:
            raise DomainError(f"eps must be positive, got {self.eps}")
        # eps*eps, not eps**2, which raises OverflowError past 1e154.
        if not (2 * self.k - 1) * (self.eps * self.eps) < 1:
            raise DomainError(
                f"eps={self.eps} outside the analytic domain (2k-1)*eps^2 < 1"
            )


def from_graph(params: GraphParams) -> ScaledParams:
    """Scaled parameters of a concrete graph: eps = 1/sqrt(n)."""
    return ScaledParams(eps=1.0 / math.sqrt(params.n), k=params.k)


def gamma_star(params: GraphParams) -> float:
    """Critical hopping rate sum_{l>=1} m_l / (N d_l), correctly rounded.

    The sum is one integer ratio over N * prod d_l, and int / int true
    division rounds it once.
    """
    mults = [_multiplicity(params.n, l) for l in range(params.k + 1)]
    num, den = _gamma_star_ratio(params, mults)
    return num / den


def _gamma_star_ratio(params: GraphParams, mults) -> tuple:
    # gamma_star as the exact integer pair (numerator, denominator), from the
    # multiplicities m_0..m_k and the gaps d_l = lambda_0 - lambda_l = l(n-l+1).
    n, k = params.n, params.k
    gaps = [l * (n - l + 1) for l in range(1, k + 1)]
    den = math.prod(gaps)
    num = sum([m * (den // d) for m, d in zip(mults[1:], gaps)])
    return num, params.num_vertices * den


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
