"""Full-space eigendecompositions and the success curve on a time grid.

:func:`sym_eig` is the one call to LAPACK (``numpy.linalg.eigh``) and
returns its ``(values, vectors)`` pair, checked; the package hands it only
the Lanczos tridiagonals of the full-space oracle
(:mod:`qwsearch.validation`).  :func:`scan` evaluates the reduced model's
curve on a uniform time grid from a factored phase table.  The reduced
model itself, its levels and weights from the secular equation,
:func:`success_probability`, :func:`find_peak` and :func:`run_time`, lives
in :mod:`qwsearch.reduced`, which imports no numpy and forms no
eigenvectors; they are importable from here too.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import GraphParams, _int
from .errors import DomainError, NumericalError
# find_peak, run_time and success_probability are re-exported.
from .reduced import (
    MAX_SCAN_SAMPLES,
    _check_phase,
    _check_window,
    _solve,
    _warn_overshoot,
    find_peak,
    run_time,
    success_probability,
)
from .spectral import spectral_data


@dataclass(frozen=True)
class ScanResult:
    """Success probabilities on a uniform time grid."""

    times: np.ndarray
    probs: np.ndarray


def sym_eig(matrix: np.ndarray) -> tuple:
    """Eigendecomposition of a real symmetric matrix via LAPACK ``eigh``.

    Returns the pair ``(values, vectors)`` that ``numpy.linalg.eigh``
    returns: the values ascending, the orthonormal eigenvectors in columns.
    ``matrix`` is one d x d matrix or a stack (..., d, d) of them, solved
    in one ``eigh`` call; each member's values and vectors, under the
    stack's leading axes, are those a 2-D call returns.  An empty or
    non-square input, input that is not integer or floating (complex, bool,
    object, str), and non-finite input are refused with
    :class:`DomainError`.  The decomposition is checked for orthonormality
    (1e-12) and for the reconstruction residual ||MV - V diag|| (1e-10
    relative to the largest entry), each gate taking its maximum over the
    whole stack; a NaN residual fails that check too.  The package calls
    it only on the Lanczos tridiagonals of the full-space oracle, at most
    (k+1) x (k+1), stacked per graph so that their largest entries agree,
    so each residual is formed whole; the reduced model is solved from its
    secular equation (:mod:`qwsearch.reduced`).
    """
    matrix = np.asarray(matrix)
    # Converting a complex matrix would drop its imaginary part with only a
    # warning, and a bool one would be read as 0/1.
    if matrix.dtype.kind not in "iuf":
        raise DomainError(f"expected a real matrix, got dtype {matrix.dtype}")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2] or not matrix.size:
        raise DomainError(f"expected a non-empty square matrix, got shape {matrix.shape}")
    # One reduction gives the residual scale and, as max propagates NaN,
    # refuses NaN and +-inf without a mask.
    scale = 1.0 + float(np.abs(matrix).max())
    if not math.isfinite(scale):
        raise DomainError("matrix has non-finite entries")
    values, vectors = np.linalg.eigh(matrix)
    # Each gate is formed in one buffer of its own, and its modulus in place.
    gram = vectors.swapaxes(-1, -2) @ vectors
    dim = matrix.shape[-1]
    gram.reshape(-1, dim * dim)[:, :: dim + 1] -= 1.0
    ortho = float(np.abs(gram, out=gram).max())
    residual = matrix @ vectors
    residual -= vectors * values[..., None, :]
    recon = float(np.abs(residual, out=residual).max())
    if not (ortho <= 1e-12 and recon <= 1e-10 * scale):
        raise NumericalError(
            f"eigendecomposition residuals too large: orthonormality {ortho:.3e}, "
            f"reconstruction {recon:.3e} (scale {scale:.3e})"
        )
    return values, vectors


def _clamp_probs(probs):
    # Clamps in place: callers pass a freshly computed array of squared
    # moduli, never negative, so only an overshoot past 1 is clipped.
    top = float(probs.max(initial=0.0))
    if top > 1.0:
        _warn_overshoot(top - 1.0)
        np.clip(probs, 0.0, 1.0, out=probs)
    return probs


def _probs_on_grid(
    levels: np.ndarray, weights: np.ndarray, t0: float, t1: float, m: int
) -> np.ndarray:
    """Probabilities at the m times np.linspace(t0, t1, m) of the curve with
    these levels and weights, from a factored phase table.

    Grid index i is written a*B + b with B = ceil(sqrt(m)), and
    e^{-iE t_i} = e^{-iE (t0 + aB*step)} * e^{-iE b*step}, so about 2*sqrt(m)
    exponentials per level replace m.  Against the sum over levels taken
    point by point at the same times, the result differs only by the
    rounding of the phase arguments, a few eps * max|E| * t1.
    """
    step = (t1 - t0) / (m - 1)
    block = math.isqrt(m - 1) + 1
    outer_times = t0 + step * (block * np.arange(-(-m // block)))
    inner_times = step * np.arange(block)
    outer = np.exp(-1j * np.outer(outer_times, levels)) * weights
    inner = np.exp(-1j * np.outer(inner_times, levels))
    amps = (outer @ inner.T).ravel()[:m]
    return _clamp_probs(np.abs(amps) ** 2)


def scan(
    params: GraphParams, gamma: float, t0: float, t1: float, m: int
) -> ScanResult:
    """Success probability on m uniformly spaced times in [t0, t1].

    Requires real 0 <= t0 < t1 with (gamma*k(n-k) + 1)*t1 finite, and
    2 <= m <= MAX_SCAN_SAMPLES (10**6); a larger m is refused before
    anything is allocated.  ``times`` is
    ``np.linspace(t0, t1, m)``; ``probs`` comes from one reduced solve and
    a factored phase table (about 2*sqrt(m) complex exponentials per
    level), so it agrees with a point-by-point evaluation to the rounding
    of the phase arguments, a few eps * max|mu_j| * t1.  The levels mu_j
    are those of the shifted matrix (:mod:`qwsearch.reduced`), whose two
    carriers lie within the gap of 0, so their phases keep their digits at
    any t1.
    """
    t0, t1 = _check_window(t0, t1)
    m = _int(m, "m", 2, MAX_SCAN_SAMPLES)
    gamma = _check_phase(params, gamma, t1)
    levels, weights, *_ = _solve(spectral_data(params), gamma)
    return ScanResult(
        times=np.linspace(t0, t1, m),
        probs=_probs_on_grid(np.array(levels), np.array(weights), t0, t1, m),
    )
