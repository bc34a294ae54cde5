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
from .johnson import GraphParams, _check_coupling
from .spectral import SpectralData, spectral_data

# scan holds all m samples at once, and the CLI renders them as one text:
# `qwsearch scan --n 6 --k 3 --m 1000000` takes 1.6-2.2 s and peaks at
# 194 MB of RSS for its 39 MB CSV report (JSON: 1.8-2.2 s, 208 MB, 58 MB) on
# a shared 2-vCPU x86_64 VM with one BLAS thread.
MAX_SCAN_SAMPLES = 10**6
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

    An empty or non-square matrix, and non-finite input, are refused with
    :class:`DomainError`.  The returned decomposition is checked for
    orthonormality (1e-12) and for the reconstruction residual
    ||MV - V diag|| (1e-10 relative to the largest entry); a NaN residual
    fails that check too.  Every caller in the package passes at most a
    (k+1) x (k+1) matrix, so each residual is formed whole.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.size:
        raise DomainError(f"expected a non-empty square matrix, got shape {matrix.shape}")
    # min/max propagate NaN, so this refuses NaN and +-inf without a mask.
    lo, hi = float(matrix.min()), float(matrix.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("matrix has non-finite entries")
    values, vectors = np.linalg.eigh(matrix)
    dim = matrix.shape[0]
    ortho = float(np.abs(vectors.T @ vectors - np.eye(dim)).max())
    recon = float(np.abs(matrix @ vectors - vectors * values).max())
    scale = 1.0 + max(hi, -lo)
    if not (ortho <= 1e-12 and recon <= 1e-10 * scale):
        raise NumericalError(
            f"eigendecomposition residuals too large: orthonormality {ortho:.3e}, "
            f"reconstruction {recon:.3e} (scale {scale:.3e})"
        )
    return EigDecomp(values=values, vectors=vectors)


def reduced_eig(params: GraphParams, gamma: float) -> EigDecomp:
    """Eigendecomposition of the reduced Hamiltonian -gamma*diag(lambda) - p p^T.

    Solved in shifted coordinates: the decomposed matrix is
    gamma*diag(lambda_0 - lambda_l) - p p^T, whose level gaps
    lambda_0 - lambda_l = l(n-l+1) are exact integers, and -gamma*lambda_0
    is added back to its eigenvalues.
    """
    return _reduced_transition(spectral_data(params), gamma)[0]


def run_time(params: GraphParams) -> float:
    """The walk duration pi * n^(k/2) / (2 sqrt(k!)), about pi*sqrt(N)/2.

    Refused with :class:`DomainError` where n^(k/2), k! or the result
    leaves binary64.
    """
    try:
        t = (
            math.pi
            * float(params.n) ** (params.k / 2)
            / (2.0 * math.sqrt(math.factorial(params.k)))
        )
        if math.isfinite(t):
            return t
    except OverflowError:
        pass
    raise DomainError(f"run_time of J({params.n},{params.k}) overflows binary64")


def _warn_overshoot(excess: float):
    if excess > _CLAMP_WARN_EXCESS:
        warnings.warn(
            f"success probability overshoots 1 by {excess:.3e}; clamping",
            RuntimeWarning,
            stacklevel=4,
        )


def _clamp_probs(probs):
    # Clamps in place: callers pass a freshly computed array.
    _warn_overshoot(float(probs.max(initial=0.0)) - 1.0)
    return np.clip(probs, 0.0, 1.0, out=probs)


def _transition(dec: EigDecomp, target: np.ndarray) -> tuple:
    # One decomposition serves every time sample: the amplitude of target
    # from e_0 is <target| V e^{-iEt} V^T |e_0>
    # = sum_j (V[0,j] * (V^T target)_j) e^{-iE_j t}.
    return dec, dec.vectors[0, :] * (dec.vectors.T @ target)


def _reduced_transition(sd: SpectralData, gamma: float) -> tuple:
    # The reduced model's (decomposition, weights) of e_0 to p, solved as
    # reduced_eig describes; sd is the instance's spectral_data.
    _check_coupling(sd.params, gamma)
    lambdas, p = sd.lambdas, sd.overlaps
    shifted = sym_eig(gamma * np.diag(lambdas[0] - lambdas) - np.outer(p, p))
    dec = EigDecomp(values=shifted.values - gamma * lambdas[0], vectors=shifted.vectors)
    return _transition(dec, p)


def _probs_at(transitions, times: np.ndarray) -> np.ndarray:
    # Row c is the success curve of the pair transitions[c] = (dec, weights)
    # at the given times, and one phase table serves them all: column c of
    # the block weights holds pair c's weights against its own levels, and
    # zeros elsewhere.
    values = np.concatenate([dec.values for dec, _ in transitions])
    block = np.zeros((len(values), len(transitions)))
    start = 0
    for c, (_, weights) in enumerate(transitions):
        block[start : start + len(weights), c] = weights
        start += len(weights)
    amps = np.exp(-1j * np.outer(times, values)) @ block
    return _clamp_probs(np.abs(amps.T) ** 2)


def _probs_on_grid(
    dec: EigDecomp, weights: np.ndarray, t0: float, t1: float, m: int
) -> np.ndarray:
    """Probabilities at the m times np.linspace(t0, t1, m), from a factored phase table.

    Grid index i is written a*B + b with B = ceil(sqrt(m)), and
    e^{-iE t_i} = e^{-iE (t0 + aB*step)} * e^{-iE b*step}, so about 2*sqrt(m)
    exponentials per level replace m.  Against :func:`_probs_at` on the same
    times the result differs only by the rounding of the phase arguments,
    a few eps * max|E| * t1.
    """
    step = (t1 - t0) / (m - 1)
    block = math.isqrt(m - 1) + 1
    outer_times = t0 + step * (block * np.arange(-(-m // block)))
    inner_times = step * np.arange(block)
    outer = np.exp(-1j * np.outer(outer_times, dec.values)) * weights
    inner = np.exp(-1j * np.outer(inner_times, dec.values))
    amps = (outer @ inner.T).ravel()[:m]
    return _clamp_probs(np.abs(amps) ** 2)


def _prob_scalar(terms: tuple, t: float) -> float:
    # |sum_j w_j e^{-iE_j t}|^2 over (E_j, w_j) pairs, in plain floats: for
    # a (k+1)-term sum at one point, numpy's per-call overhead would dominate.
    # Overshoot past 1 is clamped and warned about as in _clamp_probs.
    re = im = 0.0
    for energy, weight in terms:
        x = energy * t
        re += weight * math.cos(x)
        im += weight * math.sin(x)
    p = re * re + im * im
    if p > 1.0:
        _warn_overshoot(p - 1.0)
        return 1.0
    return p


def _check_window(t0, t1):
    if not (math.isfinite(t0) and math.isfinite(t1) and 0 <= t0 < t1):
        raise DomainError(f"need finite 0 <= t0 < t1, got t0={t0}, t1={t1}")


def _check_phase(params: GraphParams, gamma: float, t: float):
    # gamma*k(n-k) + 1 bounds ||H||, so no phase E*t up to time t overflows
    # while this product is finite.  gamma is checked first, so a bad
    # coupling is reported as such.
    _check_coupling(params, gamma)
    if not math.isfinite((gamma * params.degree + 1.0) * t):
        raise DomainError(
            f"t={t} too large for gamma={gamma} on J({params.n},{params.k}): "
            f"the phase bound (gamma*k(n-k) + 1)*t overflows"
        )


def success_probability(params: GraphParams, gamma: float, t: float) -> float:
    """|<w| exp(-iHt) |s>|^2 at time t in the exact reduced model.

    Requires finite t >= 0 with (gamma*k(n-k) + 1)*t finite.
    """
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"time must be finite and nonnegative, got {t}")
    _check_phase(params, gamma, t)
    transition = _reduced_transition(spectral_data(params), gamma)
    return float(_probs_at([transition], np.array([t]))[0, 0])


def scan(
    params: GraphParams, gamma: float, t0: float, t1: float, m: int
) -> ScanResult:
    """Success probability on m uniformly spaced times in [t0, t1].

    Requires finite 0 <= t0 < t1 with (gamma*k(n-k) + 1)*t1 finite, and
    2 <= m <= MAX_SCAN_SAMPLES (10**6); a larger m is refused before
    anything is allocated.  ``times`` is
    ``np.linspace(t0, t1, m)``; ``probs`` comes from one reduced solve and
    a factored phase table (about 2*sqrt(m) complex exponentials per
    level), so it agrees with a point-by-point evaluation to the rounding
    of the phase arguments, a few eps * max|E| * t1.
    """
    _check_window(t0, t1)
    if m < 2:
        raise DomainError(f"need at least 2 samples, got m={m}")
    if m > MAX_SCAN_SAMPLES:
        raise DomainError(f"at most {MAX_SCAN_SAMPLES} samples, got m={m}")
    _check_phase(params, gamma, t1)
    dec, weights = _reduced_transition(spectral_data(params), gamma)
    return ScanResult(
        params=params,
        gamma=gamma,
        times=np.linspace(t0, t1, m),
        probs=_probs_on_grid(dec, weights, t0, t1, m),
    )


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _grid_time(t0: float, t1: float, m: int, j: int) -> float:
    """``np.linspace(t0, t1, m)[j]`` without the grid, for (t1 - t0)/(m - 1) > 0.

    numpy forms j*step + t0 with step = (t1 - t0)/(m - 1), as here, and
    stores t1 itself as the last entry.
    """
    return t1 if j == m - 1 else t0 + j * ((t1 - t0) / (m - 1))


def _peak(dec: EigDecomp, weights: np.ndarray, t0: float, t1: float) -> tuple:
    # find_peak on a solved reduced model; the bracket is already checked.
    # A zero grid step gives equal probabilities, so i == 0 raises below.
    probs = _probs_on_grid(dec, weights, t0, t1, _PEAK_COARSE_SAMPLES)
    i = int(np.argmax(probs))
    if i == 0 or i == _PEAK_COARSE_SAMPLES - 1:
        raise BracketError(
            f"no interior maximum in bracket ({t0}, {t1}); argmax at endpoint"
        )
    a, best_t, b = (_grid_time(t0, t1, _PEAK_COARSE_SAMPLES, j) for j in (i - 1, i, i + 1))
    best_p = float(probs[i])
    terms = tuple(zip(dec.values.tolist(), weights.tolist()))

    def f(t):
        return _prob_scalar(terms, t)

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


def find_peak(params: GraphParams, gamma: float, bracket) -> tuple:
    """Locate the highest success probability inside a time bracket.

    The bracket (t0, t1) must satisfy finite 0 <= t0 < t1, with
    (gamma*k(n-k) + 1)*t1 finite.  A 2001-point
    coarse scan (the factored phase table of :func:`scan`) picks the
    argmax, which must be interior to the bracket, else
    :class:`BracketError`; golden-section then refines it to relative time
    tolerance 1e-6, evaluating the (k+1)-term amplitude one point at a
    time in scalar arithmetic.  Returns (t_peak, p_peak) with p_peak at
    least the best value seen at any evaluation, coarse scan included.
    """
    t0, t1 = bracket
    _check_window(t0, t1)
    _check_phase(params, gamma, t1)
    dec, weights = _reduced_transition(spectral_data(params), gamma)
    return _peak(dec, weights, t0, t1)


def peak_bracket(params: GraphParams) -> tuple:
    """Default search bracket (0, 2*run_time); the peak sits near run_time."""
    return (0.0, 2.0 * run_time(params))
