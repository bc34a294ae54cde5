"""Closed-form spectrum of J(n,k) and the (k+1)-dimensional search model.

The adjacency operator of J(n,k) has k+1 distinct eigenvalues

    lambda_l = (k-l)(n-k-l) - l,        l = 0..k,

with multiplicity m_l = C(n,l) - C(n,l-1).  Writing P_l for the projector
onto the l-th eigenspace and |w> for the marked vertex, the overlaps
p_l = ||P_l |w>|| satisfy p_l^2 = m_l / N.  The k+1 unit vectors
P_l|w>/p_l span a subspace invariant under the search Hamiltonian
H = -gamma*A - |w><w|, on which H acts as the exact (k+1) x (k+1) matrix

    H_red = -gamma * diag(lambda_0..lambda_k) - p p^T.

In that basis the uniform superposition |s> is the first basis vector e_0
and |w> is the vector p itself, so the whole search problem reduces to a
(k+1)-dimensional one with no approximation.

A level l is checked once, at the public boundary, and read as a Python
int; each formula exists once, as a private function of checked values,
which :func:`spectral_data` runs over l = 0..k with no check per level.

All of it is Python integer and float arithmetic, and the module imports
no numpy: :class:`SpectralData` holds tuples, which the numerical layers
convert where they compute.  Only :func:`reduced_hamiltonian` returns an
ndarray, and numpy is imported when that matrix is built.
"""

import math
import sys
from dataclasses import dataclass

from .domain import GraphParams, _check_coupling, _int
from .errors import DomainError


def _eigenvalue(n: int, k: int, ell: int) -> int:
    return (k - ell) * (n - k - ell) - ell


def _multiplicity(n: int, ell: int) -> int:
    prev = math.comb(n, ell - 1) if ell >= 1 else 0
    return math.comb(n, ell) - prev


def eigenvalue(params: GraphParams, ell: int) -> int:
    """Adjacency eigenvalue (k-l)(n-k-l) - l; equals the degree at l=0."""
    return _eigenvalue(params.n, params.k, _int(ell, "ell", 0, params.k))


def multiplicity(params: GraphParams, ell: int) -> int:
    """Eigenspace dimension C(n,l) - C(n,l-1) (exact integer)."""
    return _multiplicity(params.n, _int(ell, "ell", 0, params.k))


def overlap(params: GraphParams, ell: int) -> float:
    """p_l = ||P_l |w>|| computed as sqrt(m_l / N)."""
    # Exact integer ratio; the float division is correctly rounded.
    return math.sqrt(multiplicity(params, ell) / params.num_vertices)


def overlap_sq_factorial(params: GraphParams, ell: int) -> float:
    """p_l^2 via the factorial form k!(n-k)!(n-2l+1) / (l!(n-l+1)!).

    Independent of :func:`overlap`; kept as a cross-check route and
    evaluated as an exact integer ratio to avoid float factorials.  Refused
    with :class:`DomainError` where n-l+1 exceeds ``sys.maxsize``, the
    range of ``math.factorial``.
    """
    ell = _int(ell, "ell", 0, params.k)
    n, k = params.n, params.k
    if n - ell + 1 > sys.maxsize:
        raise DomainError(f"(n-l+1)! with n={n}, l={ell} is beyond math.factorial")
    num = math.factorial(k) * math.factorial(n - k) * (n - 2 * ell + 1)
    den = math.factorial(ell) * math.factorial(n - ell + 1)
    return num / den


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (descending), multiplicities, and marked-state overlaps.

    Each is a tuple over l = 0..k: the eigenvalues and overlaps as Python
    floats, the multiplicities as exact Python integers.
    """

    params: GraphParams
    lambdas: tuple
    mults: tuple
    overlaps: tuple


def spectral_data(params: GraphParams) -> SpectralData:
    """All closed-form spectral quantities of J(n,k) in one bundle."""
    n, k = params.n, params.k
    levels = range(k + 1)
    # lambda_l - lambda_(l+1) = n - 2l >= 2 once n >= 2k: strictly decreasing.
    lambdas = tuple([float(_eigenvalue(n, k, l)) for l in levels])
    n_vert = params.num_vertices
    mults = tuple(_multiplicity(n, l) for l in levels)
    # sqrt(m_l / N) as in overlap(), from the multiplicities already in hand
    overlaps = tuple([math.sqrt(m / n_vert) for m in mults])
    return SpectralData(params=params, lambdas=lambdas, mults=mults, overlaps=overlaps)


def reduced_hamiltonian(params: GraphParams, gamma: float) -> "numpy.ndarray":
    """Exact (k+1) x (k+1) matrix -gamma*diag(lambda) - p p^T: the search
    Hamiltonian restricted to its invariant subspace."""
    gamma = _check_coupling(params, gamma)
    return _reduced_matrix(spectral_data(params), gamma)


def _reduced_matrix(sd: SpectralData, gamma: float) -> "numpy.ndarray":
    import numpy as np

    return -gamma * np.diag(sd.lambdas) - np.outer(sd.overlaps, sd.overlaps)
