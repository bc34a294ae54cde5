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

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .domain import GraphParams, _check_coupling, _int, _real
from .errors import BracketError, DomainError, NumericalError
from .spectral import SpectralData, spectral_data

# scan holds all m samples at once, and the CLI renders them as one text:
# `qwsearch scan --n 6 --k 3 --m 1000000` takes 1.6-2.2 s and peaks at
# 194 MB of RSS for its 39 MB CSV report (JSON: 1.8-2.2 s, 208 MB, 58 MB) on
# a shared 2-vCPU x86_64 VM with one BLAS thread.
MAX_SCAN_SAMPLES = 10**6
_EPS = 2.0**-52
_CLAMP_WARN_EXCESS = 1e-10
_NEWTON_STEPS = 64


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
    m = _int(m, "m", 2, MAX_SCAN_SAMPLES)
    gamma = _check_phase(params, gamma, t1)
    dec, weights = _reduced_transition(spectral_data(params), gamma)
    return ScanResult(
        params=params,
        gamma=gamma,
        times=np.linspace(t0, t1, m),
        probs=_probs_on_grid(dec, weights, t0, t1, m),
    )


def _curve_at(terms: tuple, t: float) -> tuple:
    # (t, p, p', p'') over (e_j, w_j, w_j e_j, w_j e_j^2) terms, in plain
    # floats; C_r + i S_r = sum_j w_j e_j^r exp(i e_j t), p = C_0^2 + S_0^2.
    c0 = s0 = c1 = s1 = c2 = s2 = 0.0
    for e, w, we, wee in terms:
        cos, sin = math.cos(e * t), math.sin(e * t)
        c0, s0, c1, s1 = c0 + w * cos, s0 + w * sin, c1 + we * cos, s1 + we * sin
        c2, s2 = c2 + wee * cos, s2 + wee * sin
    p2 = 2 * (c1 * c1 + s1 * s1 - c0 * c2 - s0 * s2)
    return t, c0 * c0 + s0 * s0, 2 * (s0 * c1 - c0 * s1), p2


def _bound(row: tuple, r: float, bounds: tuple) -> tuple:
    # (bound, row): p within r of row = (t, p, p', p'') is at most bound, by
    # Taylor's theorem with |p''| <= bounds[0] and |p'''| <= bounds[1].
    _, p, d1, d2 = row
    x = max(-r, min(r, -d1 / d2 if d2 < 0 else math.copysign(r, d1)))
    cubic = d1 * x + d2 * x * x / 2 + bounds[1] * r * r * r / 6
    return p + min(cubic, abs(d1) * r + bounds[0] * r * r / 2), row


def _newton(terms: tuple, row: tuple, t0: float, t1: float) -> tuple:
    # Newton steps on p' from row = (t, p, p', p'') in [t0, t1] while p is
    # concave and does not fall, until a step is at most 4 ulp; the last row.
    for _ in range(_NEWTON_STEPS):
        t = min(t1, max(t0, row[0] - row[2] / row[3])) if row[3] < 0 else row[0]
        if abs(t - row[0]) <= 4 * math.ulp(t) or (step := _curve_at(terms, t))[1] < row[1]:
            return row
        row = step
    return row


def _refine(terms: tuple, bounds: tuple, tol: float, stack: list, best: tuple) -> tuple:
    # best raised to the maximum of p, less at most tol, over the segments
    # (lo, hi, _bound at a row inside) on the stack.  With r the distance
    # from that row to the farther end, p is monotone on the segment if
    # |p'| > bounds[0] r, and peaks at an end; it is concave if p'' +
    # bounds[1] r < 0, and a Newton on p' that keeps a bracket, and bisects
    # where a step leaves it, finds its one maximum; else the segment is
    # halved at the row.
    while stack:
        lo, hi, (top, row) = stack.pop()
        r = max(row[0] - lo, hi - row[0])
        if top <= best[1] + tol:
            continue
        if abs(row[2]) > bounds[0] * r:
            row = _curve_at(terms, hi if row[2] > 0 else lo)
            best = row if row[1] > best[1] else best
        elif row[3] + bounds[1] * r < 0:
            if lo < best[0] < hi and abs(best[2]) <= -4 * math.ulp(best[0]) * best[3]:
                continue
            known = [False, False]
            for _ in range(_NEWTON_STEPS):
                if row[2] != 0:
                    lo, hi = (row[0], hi) if row[2] > 0 else (lo, row[0])
                    known[row[2] < 0] = True
                t = row[0] - row[2] / row[3] if row[3] < 0 else lo + (hi - lo) / 2
                if abs(t - row[0]) <= 4 * math.ulp(t) or hi - lo <= 4 * math.ulp(hi):
                    break
                if not lo < t < hi:
                    t = lo + (hi - lo) / 2 if known[t >= hi] else hi if t >= hi else lo
                row = _curve_at(terms, t)
                best = row if row[1] > best[1] else best
        elif hi - lo > 4 * math.ulp(hi):
            for u, v in ((lo, row[0]), (row[0], hi)):
                stack.append((u, v, _bound(_curve_at(terms, u + (v - u) / 2), (v - u) / 2, bounds)))
    return best


def _peak(dec: EigDecomp, weights: np.ndarray, t0: float, t1: float) -> tuple:
    # find_peak on a solved reduced model; the bracket is already checked.
    # The README ("Peak search") derives the windows and bounds used here.
    values, signed = dec.values.tolist(), weights.tolist()
    w = [abs(y) for y in signed]
    a, b, *others = sorted(range(len(w)), key=w.__getitem__, reverse=True)
    centre = (values[a] + values[b]) / 2
    e, terms, m = [v - centre for v in values], [], [0.0] * 4
    for x, y, z in zip(e, signed, w):
        terms.append((x, y, y * x, y * x * x))
        x = abs(x)
        m = [m[0] + z, m[1] + z * x, m[2] + z * x * x, m[3] + z * x * x * x]
    terms, tol = tuple(terms), 4 * _EPS * m[0] * (t1 * m[1] + len(w) + 5)
    bounds = (2 * (m[0] * m[2] + m[1] ** 2), 2 * (m[0] * m[3] + 3 * m[1] * m[2]))
    spread = max(e) - min(e)
    reach = math.pi / 4 / spread if spread else math.inf
    c = others[0] if others and e[others[0]] and w[others[0]] else None
    wc = w[c] if c is not None else 0.0
    rho, amp, gap = max(m[0] - w[a] - w[b] - wc, 0.0), 2 * w[a] * w[b], abs(e[b] - e[a])
    phase = 0.0 if signed[a] * signed[b] > 0 else math.pi
    arg = lambda t: (signed[c] < 0) * math.pi - cmath.phase(
        signed[a] * cmath.exp(1j * e[a] * t) + signed[b] * cmath.exp(1j * e[b] * t)
    )
    crest = (phase + 2 * math.pi * math.ceil((gap * t0 - phase) / (2 * math.pi))) / (gap or 1)
    best, spans = (t0, -math.inf, 0.0, 0.0), [(t0, t1)]
    if amp and gap and crest <= t1:
        # Newton from the crest of the ripple of c nearest the crest of P2
        # gives best, a value p reaches.
        t = crest
        if c is not None:
            psi = arg(crest)
            t = (2 * math.pi * round((e[c] * crest + psi) / (2 * math.pi)) - psi) / e[c]
        best = _newton(terms, _curve_at(terms, min(t1, max(t0, t))), t0, t1)
        level = best[1] + tol - 2 * (w[a] + w[b] + wc) * rho - rho * rho
        p2_min = (math.sqrt(level) - wc) ** 2 if level > wc * wc else 0.0
        floor = (p2_min - w[a] ** 2 - w[b] ** 2) / amp
        if floor > 1:
            spans = []
        elif floor > -1:
            half = math.acos(floor) / gap
            first = math.ceil((gap * (t0 - half) - phase) / (2 * math.pi))
            last = math.floor((gap * (t1 + half) - phase) / (2 * math.pi))
            if last - first >= MAX_SCAN_SAMPLES:
                raise NumericalError(_too_many(t0, t1))
            crests = [(phase + 2 * math.pi * j) / gap for j in range(first, last + 1)]
            spans = [(max(t0, x - half), min(t1, x + half), x) for x in crests]
            spans = [span for span in spans if span[0] <= span[1]]
            if c is not None and p2_min > 0:
                spans = _ripple_parts(e, w, a, b, c, phase, arg, spans, level, p2_min)
    counts = [max(1, math.ceil((span[1] - span[0]) / (2 * reach))) for span in spans]
    if sum(counts) > MAX_SCAN_SAMPLES:
        raise NumericalError(_too_many(t0, t1))
    # Each point of the spans lies within reach = 1/8 of the fastest period
    # 2 pi/(max e - min e) of the point of its segment where p is sampled:
    # the centre, or best where that is as near.
    stack = []
    for (lo, hi, *_), n in zip(spans, counts):
        ends = [lo + (hi - lo) * (j / n) for j in range(n)] + [hi] if n > 1 else (lo, hi)
        for u, v in zip(ends, ends[1:]):
            if u <= best[0] <= v and best[0] - u <= reach and v - best[0] <= reach:
                row = best
            else:
                row = _curve_at(terms, u + (v - u) / 2)
                best = row if row[1] > best[1] else best
            r = row[0] - u if row[0] - u > v - row[0] else v - row[0]
            stack.append((u, v, _bound(row, r, bounds)))
    stack.sort(key=lambda segment: segment[2][0])
    t, p = _newton(terms, _refine(terms, bounds, tol, stack, best), t0, t1)[:2]
    if t in (t0, t1):
        raise BracketError(f"no interior maximum in bracket ({t0}, {t1}); maximum at an endpoint")
    if p > 1.0:
        _warn_overshoot(p - 1.0)
        p = 1.0
    return t, p


def _ripple_parts(e, w, a, b, c, phase, arg, spans, level, p2_min) -> list:
    # The parts of the spans where cos(theta) >= c_min about a crest tau of
    # theta = e_c t + arg(t), arg(t) = arg(w_c) - arg(A2(t)), which drifts
    # from its value at the crest of P2 by gap (|w_a| + |w_b|)/(2 |A2|) per
    # unit time at most.
    amp, gap, period = 2 * w[a] * w[b], abs(e[b] - e[a]), math.pi / abs(e[c])
    drift = gap * (w[a] + w[b]) / (2 * math.sqrt(p2_min) * abs(e[c]))
    base, gain, parts = w[a] ** 2 + w[b] ** 2, level - w[c] ** 2, []
    for lo, hi, crest in spans:
        psi = arg(crest)
        ends = sorted(((e[c] * lo + psi) / (2 * math.pi), (e[c] * hi + psi) / (2 * math.pi)))
        for j in range(math.ceil(ends[0] - 0.5), math.floor(ends[1] + 0.5) + 1):
            tau = (2 * math.pi * j - psi) / e[c]
            u = tau - period if tau - period > lo else lo
            v = tau + period if tau + period < hi else hi
            near = crest if u < crest < v else u if crest <= u else v
            top = base + amp * math.cos(gap * near - phase)
            c_min = (gain - top) / (2 * w[c] * math.sqrt(top if gain >= top else p2_min))
            if c_min > 1:
                continue
            width = math.acos(max(c_min, -1.0)) / abs(e[c]) + drift * (abs(tau - crest) + period)
            u, v = max(u, tau - width), min(v, tau + width)
            if u <= v:
                parts.append((parts.pop()[0], v) if parts and parts[-1][1] == u else (u, v))
    return parts


def _too_many(t0: float, t1: float) -> str:
    return f"bracket ({t0}, {t1}) needs over {MAX_SCAN_SAMPLES} samples"


def find_peak(params: GraphParams, gamma: float, bracket) -> tuple:
    """The maximum of the success probability over a time bracket.

    The bracket must be a pair (t0, t1) of reals with 0 <= t0 < t1 and
    (gamma*k(n-k) + 1)*t1 finite.  Returns (t_peak, p_peak) with p_peak
    within beta = 12 eps m_0 (t1 m_1 + d + 5) of the largest p on [t0, t1],
    and no evaluation of p in the same arithmetic above p_peak + beta:
    eps = 2^-52 and m_r = sum_j |w_j| |E_j - E_mid|^r over the d = k+1
    levels of the solved model, E_mid being the midpoint of the two levels
    of largest |w_j|.  t_peak is resolved by Newton on p' to a few ulp.  A
    maximum at t0 or t1 raises :class:`BracketError`, and a bracket whose
    search needs more than MAX_SCAN_SAMPLES samples :class:`NumericalError`
    before they are taken.  The search bounds p by the carriers' two-level
    curve and the phase of the largest other level, and samples only where
    p can beat the best value found (README, "Peak search").
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
