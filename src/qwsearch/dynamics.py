"""Unitary time evolution and success-probability evaluation.

Evolution is exact: the (real symmetric) Hamiltonian is diagonalized once
by LAPACK (``numpy.linalg.eigh``) and exp(-iHt) is applied in the
eigenbasis, so no step-size or truncation tolerance enters anywhere
downstream.  The walker starts in the uniform superposition; the success
probability at time t is |<w| exp(-iHt) |s>|^2, evaluated in the
(k+1)-dimensional reduced model where |s> = e_0 and |w> = p.

The reduced model is always solved in shifted coordinates: the matrix
-gamma*diag(lambda) - p p^T is diagonalized after adding gamma*lambda_0 to
its diagonal, as gamma*diag(lambda_0 - lambda_l) - p p^T, whose level gaps
lambda_0 - lambda_l = l(n-l+1) are exact integers; this keeps the tiny gap
between the two lowest levels to more digits, and -gamma*lambda_0 is added
back to the eigenvalues.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .domain import GraphParams, _check_coupling, _is_int, _real
from .errors import BracketError, DomainError, NumericalError
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

    ``matrix`` is one d x d matrix or a stack (..., d, d) of them, solved
    in one ``eigh`` call; each member's values and vectors, under the
    stack's leading axes, are those a 2-D call returns.  An empty or
    non-square input, input that is not integer or floating (complex, bool,
    object, str), and non-finite input are refused with
    :class:`DomainError`.  The decomposition is checked for orthonormality
    (1e-12) and for the reconstruction residual ||MV - V diag|| (1e-10
    relative to the largest entry), each gate taking its maximum over the
    whole stack; a NaN residual fails that check too.  The package stacks
    only the Lanczos tridiagonals of one graph, whose largest entries
    agree, and passes at most (k+1) x (k+1) matrices, so each residual is
    formed whole.
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
    gram = vectors.swapaxes(-1, -2) @ vectors
    dim = matrix.shape[-1]
    gram.reshape(-1, dim * dim)[:, :: dim + 1] -= 1.0
    ortho = float(np.abs(gram).max())
    recon = float(np.abs(matrix @ vectors - vectors * values[..., None, :]).max())
    if not (ortho <= 1e-12 and recon <= 1e-10 * scale):
        raise NumericalError(
            f"eigendecomposition residuals too large: orthonormality {ortho:.3e}, "
            f"reconstruction {recon:.3e} (scale {scale:.3e})"
        )
    return EigDecomp(values=values, vectors=vectors)


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
    # Clamps in place: callers pass a freshly computed array of squared
    # moduli, never negative, so only an overshoot past 1 is clipped.
    top = float(probs.max(initial=0.0))
    if top > 1.0:
        _warn_overshoot(top - 1.0)
        np.clip(probs, 0.0, 1.0, out=probs)
    return probs


def _transition(dec: EigDecomp, target: np.ndarray) -> tuple:
    # One decomposition serves every time sample: the amplitude of target
    # from e_0 is <target| V e^{-iEt} V^T |e_0>
    # = sum_j (V[0,j] * (V^T target)_j) e^{-iE_j t}.
    return dec, dec.vectors[0, :] * (dec.vectors.T @ target)


def _reduced_transition(sd: SpectralData, gamma: float) -> tuple:
    # The reduced model's (decomposition, weights) of e_0 to p, sd being the
    # instance's spectral_data: gamma*diag(lambda_0 - lambda_l) - p p^T is
    # decomposed and -gamma*lambda_0 added back to its eigenvalues (see the
    # module docstring).  Callers check gamma; gamma_star needs no check, as
    # every gap l(n-l+1) is at least n, so gamma_star*k(n-k+1) <= k.
    # -p p^T plus gamma*(lambda_0 - lambda) on the diagonal rounds entry by
    # entry as gamma*diag(lambda_0 - lambda) - p p^T, in fewer numpy calls.
    lambdas, p = np.array(sd.lambdas), np.array(sd.overlaps)
    matrix = np.multiply.outer(p, -p)
    matrix.ravel()[:: len(p) + 1] += gamma * (lambdas[0] - lambdas)
    shifted = sym_eig(matrix)
    dec = EigDecomp(values=shifted.values - gamma * lambdas[0], vectors=shifted.vectors)
    return _transition(dec, p)


def _probs_at(dec: EigDecomp, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    # The success curve of the transition (dec, weights) at the given times.
    # The weights enter as a d x 1 matrix: a 1-D product takes another BLAS
    # path, whose sums round differently.
    amps = np.exp(-1j * np.outer(times, dec.values)) @ weights[:, None]
    return _clamp_probs(np.abs(amps[:, 0]) ** 2)


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


def _check_window(t0, t1) -> tuple:
    # The checked bracket (t0, t1), as Python floats.
    t0, t1 = _real(t0, "t0"), _real(t1, "t1")
    if not 0 <= t0 < t1:
        raise DomainError(f"need 0 <= t0 < t1, got t0={t0}, t1={t1}")
    return t0, t1


def _check_phase(params: GraphParams, gamma, t: float) -> float:
    # The checked coupling, for a checked time t.  gamma*k(n-k) + 1 bounds
    # ||H||, so no phase E*t up to time t overflows while this product is
    # finite.  gamma is checked first, so a bad coupling is reported as such.
    gamma = _check_coupling(params, gamma)
    if not math.isfinite((gamma * params.degree + 1.0) * t):
        raise DomainError(
            f"t={t} too large for gamma={gamma} on J({params.n},{params.k}): "
            f"the phase bound (gamma*k(n-k) + 1)*t overflows"
        )
    return gamma


def _check_time(params: GraphParams, gamma, t, name: str) -> tuple:
    # The checked (gamma, t) of one time t >= 0 under the phase bound.
    t = _real(t, name)
    if not t >= 0:
        raise DomainError(f"{name} must be nonnegative, got {t}")
    return _check_phase(params, gamma, t), t


def success_probability(params: GraphParams, gamma: float, t: float) -> float:
    """|<w| exp(-iHt) |s>|^2 at time t in the exact reduced model.

    Requires a real t >= 0 with (gamma*k(n-k) + 1)*t finite.
    """
    gamma, t = _check_time(params, gamma, t, "t")
    dec, weights = _reduced_transition(spectral_data(params), gamma)
    return float(_probs_at(dec, weights, np.array([t]))[0])


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
    of the phase arguments, a few eps * max|E| * t1.
    """
    t0, t1 = _check_window(t0, t1)
    if not _is_int(m):
        raise DomainError(f"m must be an integer, got {m!r}")
    if m < 2:
        raise DomainError(f"need at least 2 samples, got m={m}")
    if m > MAX_SCAN_SAMPLES:
        raise DomainError(f"at most {MAX_SCAN_SAMPLES} samples, got m={m}")
    gamma = _check_phase(params, gamma, t1)
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
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = _prob_scalar(terms, c), _prob_scalar(terms, d)
    while b - a > _PEAK_REL_TOL * max(abs(a), abs(b), 1e-300):
        if fc > best_p:
            best_t, best_p = c, fc
        if fd > best_p:
            best_t, best_p = d, fd
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = _prob_scalar(terms, d)
        else:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = _prob_scalar(terms, c)
    return best_t, best_p


def find_peak(params: GraphParams, gamma: float, bracket) -> tuple:
    """A local maximum of the success probability in a time bracket.

    The bracket must be a pair (t0, t1) of reals with 0 <= t0 < t1 and
    (gamma*k(n-k) + 1)*t1 finite.  A 2001-point coarse scan (the factored
    phase table of :func:`scan`) picks the argmax, which must be interior
    to the bracket, else :class:`BracketError`; golden-section then refines
    it within one coarse step, to relative time tolerance 1e-6, evaluating
    the (k+1)-term amplitude one point at a time in scalar arithmetic.
    Returns (t_peak, p_peak) with p_peak at least the best value seen at
    any evaluation, coarse scan included.  That is not always the highest
    value in the bracket: the search can stop on a crest of the ripple that
    levels 2..k add to the main peak (7.3e-9 below it at J(1000,4); see the
    README).
    """
    try:
        t0, t1 = bracket
    except (TypeError, ValueError):
        raise DomainError(f"bracket must be a pair (t0, t1), got {bracket!r}") from None
    t0, t1 = _check_window(t0, t1)
    gamma = _check_phase(params, gamma, t1)
    dec, weights = _reduced_transition(spectral_data(params), gamma)
    return _peak(dec, weights, t0, t1)


def peak_bracket(params: GraphParams) -> tuple:
    """Default search bracket (0, 2*run_time); the peak sits near run_time."""
    return (0.0, 2.0 * run_time(params))
