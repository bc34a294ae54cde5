"""The graph parameters and the argument checks, in the standard library.

:class:`GraphParams` selects J(n,k), and the private checks here decide
every integer, real and coupling argument the package takes.  The rules on
times, time windows and the phase bound, built on these checks, are in
:mod:`qwsearch.reduced`.  This module and the exact layer built on it (the
closed-form spectrum and gamma_star) import no numpy, so the CLI's
``spectrum`` and ``gamma`` never load it.

numpy scalars are still accepted wherever a Python number is: no numpy
scalar can exist before numpy is imported, so each check looks numpy up in
``sys.modules`` when it is called, and never imports it.
"""

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

# Dense N x N work stays affordable up to this many vertices: one N x N
# float64 matrix is 72 MB at the cap, and `validate` there (the adjacency,
# one values-only dense eigensolve, Lanczos curves) takes about 3 s and
# peaks near 170 MB; in one process a further marked vertex of the same
# graph takes about 0.25 s, as the eigensolve's checks are kept per graph
# (validation._memo_graph).  Overridable per call and via the CLI.  The cap is
# checked on every call, memoised index or not; the index itself is
# O(N k), plus N k(n-k) int64 clique edges (1.2 MB at J(14,6)) once a
# dense matrix has been built.
DEFAULT_FULL_CAP = 3003

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _int(value, name: str, low=None, high=None) -> int:
    # The one check of an integer argument: a Python or numpy integer, never
    # a bool (numpy reads one as a mask), within low..high where given,
    # returned as a Python int, so no numpy fixed-width value reaches the
    # arithmetic on an unbounded n.
    np = sys.modules.get("numpy")
    types = int if np is None else (int, np.integer)
    if isinstance(value, types) and not isinstance(value, bool):
        value = int(value)
        if (low is None or low <= value) and (high is None or value <= high):
            return value
    bounds = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
    raise DomainError(f"{name} must be an integer{bounds}, got {value!r}")


def _real(value, name: str) -> float:
    # The one check of a real argument: a finite Python or numpy integer or
    # floating scalar, never a bool, returned as a Python float.  Complex
    # values (numpy would drop the imaginary part), str, None, sequences,
    # arrays, NaN and +-inf are refused; callers keep their order rules.
    np = sys.modules.get("numpy")
    types = (int, float) if np is None else (int, float, np.integer, np.floating)
    if isinstance(value, types) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:  # a Python int beyond binary64
            real = math.inf
        if math.isfinite(real):
            return real
    raise DomainError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class GraphParams:
    """The pair (n, k) selecting J(n,k); requires k >= 1 and n >= 2k."""

    n: int
    k: int

    def __post_init__(self):
        # Stored as the Python ints the checks return.
        n, k = _int(self.n, "n"), _int(self.k, "k", 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        if n < 2 * k:
            raise DomainError(f"need n >= 2k for diameter k, got n={n}, k={k}")
        # C(n,k) >= (n/k)^k, so a k*ln(n/k) beyond ln(max float) overflows
        # for sure and is refused before the exact, possibly huge, C(n,k).
        try:
            if k * (math.log(n) - math.log(k)) > _LOG_FLOAT_MAX:
                raise OverflowError
            float(self.num_vertices)
        except OverflowError:
            raise DomainError(f"C({n},{k}) overflows the binary64 range") from None

    @property
    def num_vertices(self) -> int:
        return math.comb(self.n, self.k)

    @property
    def degree(self) -> int:
        return self.k * (self.n - self.k)


# A coupling is refused unless gamma*k(n-k+1) < 1e300.  That product is the
# largest pole gamma*d_k of the reduced model's secular equation, so no pole
# difference overflows, and it bounds gamma*||A|| = gamma*k(n-k).  So every
# Lanczos tridiagonal handed to sym_eig has absolute row sums below 1e300 +
# k + 1, and no product in its gates (M V, V diag(values), their difference,
# the scale 1 + max|M|) nor the shift back by -gamma*lambda_0 comes near the
# binary64 overflow at 1.8e308.
_COUPLING_BOUND = 1e300


def _check_coupling(params: GraphParams, gamma: float) -> float:
    # The checked coupling, as a Python float.
    gamma = _real(gamma, "gamma")
    if not gamma > 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if not gamma * (params.k * (params.n - params.k + 1)) < _COUPLING_BOUND:
        raise DomainError(
            f"gamma={gamma} too large for J({params.n},{params.k}): "
            f"gamma*k(n-k+1) must be below {_COUPLING_BOUND:g}"
        )
    return gamma
