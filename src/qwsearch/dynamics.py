"""Unitary time evolution and success-probability evaluation.

Evolution is exact: the (real symmetric) Hamiltonian is diagonalized once
by LAPACK (``numpy.linalg.eigh``) and exp(-iHt) is applied in the
eigenbasis, so no step-size or truncation tolerance enters anywhere
downstream.  The walker starts in the uniform superposition; the success
probability at time t is |<w| exp(-iHt) |s>|^2, evaluated in the
(k+1)-dimensional reduced model where |s> = e_0 and |w> = p.

The reduced model is always solved in shifted coordinates (see
:func:`reduced_eig`): its matrix is diagonalized after adding
gamma*lambda_0 to the diagonal, which makes the level gaps exact integers
and keeps the tiny gap between the two lowest levels to more digits.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DomainError, NumericalError
from .johnson import GraphParams
from .spectral import SpectralData, spectral_data

_PEAK_COARSE_SAMPLES = 2001
_PEAK_REL_TOL = 1e-6
_CLAMP_WARN_EXCESS = 1e-10


@dataclass(frozen=True)
class EigDecomp:
    """Orthonormal eigendecomposition; ``values`` ascending, eigenvectors in columns."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class ScanResult:
    """Success probabilities on a uniform time grid."""

    params: GraphParams
    gamma: float
    times: np.ndarray
    probs: np.ndarray


def sym_eig(matrix: np.ndarray) -> EigDecomp:
    """Eigendecomposition of a real symmetric matrix via LAPACK ``eigh``.

    Non-finite input is refused with :class:`DomainError`.  The returned
    decomposition is checked for orthonormality (1e-12) and for the
    reconstruction residual ||MV - V diag|| (1e-10 relative to the
    largest entry); a NaN residual fails that check too.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise DomainError("matrix has non-finite entries")
    values, vectors = np.linalg.eigh(matrix)
    dim = matrix.shape[0]
    ortho = np.max(np.abs(vectors.T @ vectors - np.eye(dim)))
    recon = np.max(np.abs(matrix @ vectors - vectors * values))
    scale = 1.0 + np.max(np.abs(matrix))
    if not (ortho <= 1e-12 and recon <= 1e-10 * scale):
        raise NumericalError(
            f"eigendecomposition residuals too large: orthonormality {ortho:.3e}, "
            f"reconstruction {recon:.3e} (scale {scale:.3e})"
        )
    return EigDecomp(values=values, vectors=vectors)


def reduced_eig(
    params: GraphParams, gamma: float, sd: SpectralData | None = None
) -> EigDecomp:
    """Eigendecomposition of the reduced Hamiltonian -gamma*diag(lambda) - p p^T.

    Solved in shifted coordinates: the decomposed matrix is
    gamma*diag(lambda_0 - lambda_l) - p p^T, whose level gaps
    lambda_0 - lambda_l = l(n-l+1) are exact integers, and -gamma*lambda_0
    is added back to its eigenvalues.  ``sd`` is the instance's
    :func:`spectral_data`, computed here when not given.
    """
    if not gamma > 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if sd is None:
        sd = spectral_data(params)
    p = sd.overlaps
    shifted = sym_eig(gamma * np.diag(sd.lambdas[0] - sd.lambdas) - np.outer(p, p))
    return EigDecomp(
        values=shifted.values - gamma * sd.lambdas[0], vectors=shifted.vectors
    )


def evolve(dec: EigDecomp, psi0: np.ndarray, t: float) -> np.ndarray:
    """Apply exp(-iHt) to a state, H given by its eigendecomposition."""
    psi0 = np.asarray(psi0)
    if psi0.shape != (dec.values.shape[0],):
        raise DomainError(
            f"state length {psi0.shape} does not match dimension {dec.values.shape[0]}"
        )
    coeffs = dec.vectors.T @ psi0
    return dec.vectors @ (np.exp(-1j * dec.values * t) * coeffs)


def run_time(params: GraphParams) -> float:
    """The walk duration pi * n^(k/2) / (2 sqrt(k!)), about pi*sqrt(N)/2."""
    return (
        math.pi
        * float(params.n) ** (params.k / 2)
        / (2.0 * math.sqrt(math.factorial(params.k)))
    )


def _clamp_probs(probs):
    excess = float(np.max(probs, initial=0.0)) - 1.0
    if excess > _CLAMP_WARN_EXCESS:
        warnings.warn(
            f"success probability overshoots 1 by {excess:.3e}; clamping",
            RuntimeWarning,
            stacklevel=3,
        )
    return np.clip(probs, 0.0, 1.0)


def _reduced_transition(
    params: GraphParams, gamma: float, sd: SpectralData | None = None
):
    # One decomposition serves every time sample: the amplitude is
    # <p| V e^{-iEt} V^T |e_0> = sum_j (V[0,j] * (V^T p)_j) e^{-iE_j t}.
    if sd is None:
        sd = spectral_data(params)
    dec = reduced_eig(params, gamma, sd)
    weights = dec.vectors[0, :] * (dec.vectors.T @ sd.overlaps)
    return dec, weights


def _probs_at(dec: EigDecomp, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    amps = np.exp(-1j * np.outer(times, dec.values)) @ weights
    return _clamp_probs(np.abs(amps) ** 2)


def success_probability(params: GraphParams, gamma: float, t: float) -> float:
    """|<w| exp(-iHt) |s>|^2 at time t in the exact reduced model."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    dec, weights = _reduced_transition(params, gamma)
    return float(_probs_at(dec, weights, np.array([t]))[0])


def scan(
    params: GraphParams, gamma: float, t0: float, t1: float, m: int
) -> ScanResult:
    """Success probability on m uniformly spaced times in [t0, t1]."""
    if not 0 <= t0 < t1:
        raise DomainError(f"need 0 <= t0 < t1, got t0={t0}, t1={t1}")
    if m < 2:
        raise DomainError(f"need at least 2 samples, got m={m}")
    dec, weights = _reduced_transition(params, gamma)
    times = np.linspace(t0, t1, m)
    return ScanResult(
        params=params, gamma=gamma, times=times, probs=_probs_at(dec, weights, times)
    )


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def find_peak(params: GraphParams, gamma: float, bracket) -> tuple:
    """Locate the highest success probability inside a time bracket.

    A 2001-point coarse scan picks the argmax, which must be interior to
    the bracket; golden-section then refines it to relative time
    tolerance 1e-6.  Returns (t_peak, p_peak) with p_peak at least the
    best value seen at any evaluation, coarse scan included.
    """
    t0, t1 = bracket
    if not 0 <= t0 < t1:
        raise DomainError(f"need 0 <= t0 < t1, got bracket {bracket}")
    dec, weights = _reduced_transition(params, gamma)
    times = np.linspace(t0, t1, _PEAK_COARSE_SAMPLES)
    probs = _probs_at(dec, weights, times)
    i = int(np.argmax(probs))
    if i == 0 or i == _PEAK_COARSE_SAMPLES - 1:
        raise BracketError(
            f"no interior maximum in bracket ({t0}, {t1}); argmax at endpoint"
        )
    best_t, best_p = float(times[i]), float(probs[i])

    def f(t):
        return float(_probs_at(dec, weights, np.array([t]))[0])

    a, b = float(times[i - 1]), float(times[i + 1])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _PEAK_REL_TOL * max(abs(a), abs(b), 1e-300):
        if fc > best_p:
            best_t, best_p = c, fc
        if fd > best_p:
            best_t, best_p = d, fd
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
    return best_t, best_p


def peak_bracket(params: GraphParams) -> tuple:
    """Default search bracket (0, 2*run_time); the peak sits near run_time."""
    return (0.0, 2.0 * run_time(params))


def energy_expectation(matrix: np.ndarray, psi: np.ndarray) -> float:
    """<psi| M |psi> for a real symmetric M and a complex state."""
    return float(np.real(np.conj(psi) @ (matrix @ psi)))
