"""The reduced model in plain floats: its levels and weights from the
secular equation, the success curve, its peak, and the sweep rows.

The walker's amplitude on |w> lives in the (k+1)-dimensional model
H_red = -gamma*diag(lambda) - p p^T (:mod:`qwsearch.spectral`).  Its levels
are mu_j - gamma*lambda_0, with mu_j the eigenvalues of the shifted matrix
M = gamma*diag(d) - p p^T, whose poles gamma*d_l, d_l = lambda_0 - lambda_l
= l(n-l+1), are exact integers times gamma.  Those are the roots of the
secular equation

    f(mu) = 1 - sum_l p_l^2/(gamma d_l - mu) = 0

(Bunch, Nielsen & Sorensen, Numer. Math. 31 (1978) 31), one below 0 and
one between each pair of neighbouring poles.  Each root is an offset delta
from its nearer pole gamma*d_i, and the offsets gamma*(d_l - d_i) to the
other poles are rounded once from exact integers, so no difference
gamma*d_l - mu cancels.  Root j solves G(delta) = -delta f = delta (r(delta)
- 1) - p_i^2 = 0, r = sum_{l != i} p_l^2/(gamma (d_l - d_i) - delta).  For
the two roots at pole 0, r - 1 = (S - 1) + delta T(delta) with S =
gamma*/gamma and T > 0, and 1 - S = (gamma - gamma*)/gamma is formed
exactly from gamma's dyadic value and gamma*'s integer ratio
(:func:`coupling.gamma_star`), then rounded once: at gamma* the
detuning that a float sum r - 1 loses to cancellation is exactly 0.  G is
convex between the neighbouring poles.  Newton on it starts from the
quadratic model T(0) delta^2 + (r(0) - 1) delta - p_i^2 at the pole whose
model puts the root nearer, inside the bracket of the root's two poles
(-1 and 0 for the lowest root), and a root found past the midpoint is
solved again at the other pole.  A solve takes at most 32 steps or is
refused with :class:`NumericalError`.

The eigenvector of mu_j is v_l = p_l/((gamma d_l - mu_j) sqrt(R_j)), R_j =
sum_l p_l^2/(gamma d_l - mu_j)^2, so each weight w_j = v_0 (v . p) of the
curve p(t) = |sum_j w_j e^{-i mu_j t}|^2 of e_0 to p is -p_0/(mu_j R_j),
formed from the offsets (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 15
(1994) 1266), and the ground state's overlaps are p_0^2/(mu_0^2 R_0) with
e_0 and 1/R_0 with p.

This module imports no numpy: ``simulate`` and ``sweep`` run on it alone.
"""

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

from . import coupling
from .domain import GraphParams, _check_coupling, _int, _real
from .errors import BracketError, DomainError, NumericalError
from .spectral import SpectralData, spectral_data

# The bound on scan's samples and find_peak's.  scan holds all m samples at
# once, and the CLI renders them as one text: `qwsearch scan --n 6 --k 3
# --m 1000000` takes 1.6-2.2 s and peaks at 194 MB of RSS for its 39 MB CSV
# report (JSON: 1.8-2.2 s, 208 MB, 58 MB) on a shared 2-vCPU x86_64 VM with
# one BLAS thread.
MAX_SCAN_SAMPLES = 10**6
_EPS = 2.0**-52
_TINY = sys.float_info.min
_CLAMP_WARN_EXCESS = 1e-10
_NEWTON_STEPS = 64
_SECULAR_STEPS = 32
_SETTLED = 2.0**-27


def _solve(sd: SpectralData, gamma: float, ratio: tuple = None) -> tuple:
    # (levels, weights, sums, offsets, steps) of the reduced model at a
    # checked gamma, from the secular equation of M = gamma*diag(d) - p p^T,
    # d_l = l(n-l+1) (the module docstring): the levels mu_j ascending, the
    # weights w_j, R_j, each root's offset delta_j from the pole it was
    # solved at (pole j if delta_j < 0, else pole j-1), and the most Newton
    # steps a root took.  ratio is gamma_star's exact integer pair, computed
    # here unless the caller has it.
    params = sd.params
    n, k, big_n = params.n, params.k, params.num_vertices
    # The two closest poles are gamma*(d_k - d_(k-1)) = gamma*(n-2k+2) apart.
    if not gamma * (n - 2 * k + 2) >= _TINY:
        raise NumericalError(f"gamma={gamma} puts the levels of J({n},{k}) closer "
                             f"than binary64 resolves")
    p2 = [m / big_n for m in sd.mults]
    d = [l * (n - l + 1) for l in range(k + 1)]
    num, den = ratio or coupling._gamma_star_ratio(params, sd.mults)
    # gamma*(d_l - d_i) is rounded once from the exact integer difference: a
    # product of floats is exact below 2**53, and a/b is gamma's dyadic value.
    a, b = gamma.as_integer_ratio()
    exact = d[k] < 2**53
    try:
        # Pole i as (row, c_i = r_i(0) - 1, T_i(0), terms), row[l] = gamma*(d_l
        # - d_i) and terms being (x_l, p_l^2, p_l^2/x_l) over l >= 1 at pole 0
        # and None elsewhere; at pole 0, c = S - 1 = (gamma* - gamma)/gamma
        # exactly, rounded once.
        poles = []
        for di in d:
            row, c, slope = [], -1.0, 0.0
            for dl, q in zip(d, p2):
                x = gamma * (dl - di) if exact else (dl - di) * a / b
                row.append(x)
                if x:
                    u = q / x
                    c += u
                    slope += u / x
            poles.append((row, c, slope, None))
        row, _, slope, _ = poles[0]
        terms = [(x, q, q / x) for x, q in zip(row[1:], p2[1:])]
        poles[0] = (row, (num * b - den * a) / (den * a), slope, terms)
        levels, weights, sums, offsets, steps = [], [], [], [], 0
        for j in range(k + 1):
            # Root j lies between the poles j-1 and j (below pole 0 for j =
            # 0, where f(-1) >= 0).  It is solved at the pole whose model
            # puts it nearer, and again at the other if it lies beyond the
            # midpoint.
            if j == 0:
                i, delta, used = 0, *_root(poles[0], p2, -1.0, _model(poles[0], p2[0], -1))
            else:
                width = poles[j - 1][0][j]
                right = _model(poles[j - 1], p2[j - 1], 1)
                left = _model(poles[j], p2[j], -1)
                i, far, start = (j - 1, width, right) if right <= -left else (j, -width, left)
                delta, used = _root(poles[i], p2, far, start)
                if abs(delta) > width / 2:
                    i, far, start = (j, -width / 2, delta - width) if far > 0 else (
                        j - 1, width / 2, delta + width)
                    delta, more = _root(poles[i], p2, far, start)
                    used += more
            steps = max(steps, used)
            # R_j summed left to right: sum() compensates from Python 3.12 on,
            # and every supported interpreter must print the same digits.
            r = 0.0
            for x, q in zip(poles[i][0], p2):
                x -= delta
                r += q / x / x
            level = delta - poles[i][0][0]
            levels.append(level)
            # gamma d_0 - mu_j is -level, exactly: fl(x - delta) = -fl(delta - x).
            weights.append(sd.overlaps[0] / (-level * r))
            sums.append(r)
            offsets.append(delta)
    except (ZeroDivisionError, OverflowError):
        raise NumericalError(f"the secular equation of J({n},{k}) at gamma={gamma} "
                             f"leaves binary64") from None
    if not math.isfinite(sum(weights) + sum(sums) + sum(levels)):
        raise NumericalError(f"the secular equation of J({n},{k}) at gamma={gamma} "
                             f"leaves binary64")
    return tuple(levels), tuple(weights), tuple(sums), tuple(offsets), steps


def _model(pole: tuple, p2: float, side: int) -> float:
    # The root of the pole's quadratic model slope*delta^2 + c*delta - p2 =
    # 0 on the side (+1 or -1) of the pole, in the form without cancellation.
    _, c, slope, _ = pole
    disc = math.sqrt(c * c + 4 * slope * p2)
    if side * c >= 0:  # the smaller root
        return side * 2 * p2 / (abs(c) + disc)
    return side * (abs(c) + disc) / (2 * slope) if slope else side * math.inf


def _secular(pole: tuple, p2: list, delta: float) -> tuple:
    # (G, G') at the offset delta from pole i, G(delta) = delta (r(delta) -
    # 1) - p_i^2 = -delta f, r = sum_{l != i} p_l^2/(x_l - delta), and G' =
    # G/delta + delta R.  The sums over every l, the pole's own term -p_i^2/
    # delta included, give G = delta (r - p_i^2/delta - 1) and R at once.
    # At pole 0, r - 1 is also (S - 1) + delta T(delta), T = sum_{l >= 1}
    # p_l^2/(x_l (x_l - delta)) > 0: that form keeps the digits the exact
    # 1 - S carries wherever its terms are smaller than those of r - 1.
    row, c, _, terms = pole
    r = t = rr = 0.0
    if terms is None:
        for x, q in zip(row, p2):
            inv = 1.0 / (x - delta)
            r += q * inv
            rr += q * inv * inv
        g = delta * (r - 1.0)
        return g, g / delta + delta * rr
    for x, q, u in terms:
        inv = 1.0 / (x - delta)
        r += q * inv
        t += u * inv
        rr += q * inv * inv
    dt = delta * t
    g = delta * (c + dt if abs(c) + abs(dt) < r + 1.0 else r - 1.0) - p2[0]
    return g, g / delta + delta * (p2[0] / delta / delta + rr)


def _root(pole: tuple, p2: list, far: float, start: float) -> tuple:
    # (delta, steps): the root of G between the pole (offset 0) and far,
    # by Newton from start, or from far/2 where start lies outside.  G is
    # convex between the neighbouring poles and -p_i^2 at 0, so it is
    # negative between the pole and the root and positive beyond (where
    # Newton steps stay); each evaluation narrows the bracket (lo, hi), and
    # a step that leaves it is replaced by the bracket's midpoint.
    lo, hi = (0.0, far) if far > 0 else (far, 0.0)
    delta = start if lo < start < hi else far / 2
    for steps in range(1, _SECULAR_STEPS + 1):
        g, dg = _secular(pole, p2, delta)
        if not math.isfinite(dg):
            raise NumericalError(f"the secular equation leaves binary64 at offset {delta!r}")
        if g == 0:
            return delta, steps
        if (g < 0) == (far > 0):
            lo = delta
        else:
            hi = delta
        step = delta - g / dg
        # Newton's error squares each step: one within _SETTLED of the last
        # leaves an error below eps.
        if abs(step - delta) <= _SETTLED * abs(step):
            return step, steps
        delta = step if lo < step < hi else lo + (hi - lo) / 2
    raise NumericalError(f"no secular root within {_SECULAR_STEPS} Newton steps")


def run_time(params: GraphParams) -> float:
    """The walk duration pi * n^(k/2) / (2 sqrt(k!)), about pi*sqrt(N)/2.

    Refused with :class:`DomainError` where n^(k/2), k! or the result
    leaves binary64.
    """
    return _durations(params)[0]


def _durations(params: GraphParams) -> tuple:
    # (run_time, n^(k/2)/(2 sqrt(k!))) from one power and one factorial.
    try:
        x, y = float(params.n) ** (params.k / 2), 2.0 * math.sqrt(math.factorial(params.k))
        t = math.pi * x / y
        if math.isfinite(t):
            return t, x / y
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


def _clamp(p: float) -> float:
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

    Requires a real t >= 0 with (gamma*k(n-k) + 1)*t finite.  The curve is
    the one :func:`find_peak` searches, evaluated in the same plain-float
    arithmetic.
    """
    gamma, t = _check_time(params, gamma, t, "t")
    levels, weights, *_ = _solve(spectral_data(params), gamma)
    return _clamp(_curve_at(_curve(levels, weights)[0], t)[1])


def _curve_at(terms: tuple, t: float) -> tuple:
    # (t, p, p', p'') over (e_j, w_j, w_j e_j, w_j e_j^2) terms, in plain
    # floats; C_r + i S_r = sum_j w_j e_j^r exp(i e_j t), p = C_0^2 + S_0^2.
    c0 = s0 = c1 = s1 = c2 = s2 = 0.0
    for e, w, we, wee in terms:
        x = e * t
        cos, sin = math.cos(x), math.sin(x)
        c0 += w * cos
        s0 += w * sin
        c1 += we * cos
        s1 += we * sin
        c2 += wee * cos
        s2 += wee * sin
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


def _curve(levels, weights) -> tuple:
    # (terms, e, |w|, order) of p(t) = |sum_j w_j exp(-i mu_j t)|^2: the
    # levels centred on the midpoint of the two of largest |w_j| (order
    # sorts the levels by |w_j|, largest first), and _curve_at's terms.  The
    # shift leaves p unchanged and keeps the phases e_j t, and their
    # rounding, small.
    w = [abs(y) for y in weights]
    order = sorted(range(len(w)), key=w.__getitem__, reverse=True)
    centre = (levels[order[0]] + levels[order[1]]) / 2
    e = [v - centre for v in levels]
    return tuple([(x, y, y * x, y * x * x) for x, y in zip(e, weights)]), e, w, order


def _peak(curve: tuple, t0: float, t1: float) -> tuple:
    # find_peak on the _curve of a solved reduced model; the bracket is
    # already checked.  The README ("Peak search") derives the windows and
    # bounds used here.
    terms, e, w, (a, b, *others) = curve
    signed = [term[1] for term in terms]
    m0 = m1 = m2 = m3 = 0.0
    for x, z in zip(e, w):
        x = abs(x)
        m0 += z
        m1 += z * x
        m2 += z * x * x
        m3 += z * x * x * x
    tol = 4 * _EPS * m0 * (t1 * m1 + len(w) + 5)
    bounds = (2 * (m0 * m2 + m1 ** 2), 2 * (m0 * m3 + 3 * m1 * m2))
    spread = max(e) - min(e)
    reach = math.pi / 4 / spread if spread else math.inf
    c = others[0] if others and e[others[0]] and w[others[0]] else None
    wc = w[c] if c is not None else 0.0
    rho, amp, gap = max(m0 - w[a] - w[b] - wc, 0.0), 2 * w[a] * w[b], abs(e[b] - e[a])
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
    return t, _clamp(p)


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
    levels, weights, *_ = _solve(spectral_data(params), gamma)
    return _peak(_curve(levels, weights), t0, t1)


@dataclass(frozen=True)
class SweepRow:
    """One convergence-study record at the critical coupling."""

    n: int
    N: int
    gamma_star: float
    t_run: float
    p_at_trun: float
    t_peak: float
    p_peak: float
    gap: float
    gap_ratio: float
    phase: float
    s_overlap_sq: float
    w_overlap_sq: float


def asymptotics_row(params: GraphParams) -> SweepRow:
    """All convergence-study quantities of one instance at the critical coupling.

    One pass: the spectrum, gamma_star's exact ratio, run_time and the
    curve are each computed once, and the reduced model is solved once; the
    success probability at run_time and the peak search (as
    :func:`success_probability` and :func:`find_peak` compute them) share
    that solve and its curve.  p_peak is within find_peak's bound beta of
    the largest p on (0, 2*run_time).  The gap mu_1 - mu_0 is one
    difference of two offsets from pole 0.
    """
    sd = spectral_data(params)
    ratio = coupling._gamma_star_ratio(params, sd.mults)
    gamma = ratio[0] / ratio[1]
    levels, weights, sums, _, _ = _solve(sd, gamma, ratio)
    gap = levels[1] - levels[0]
    t_run, scale = _durations(params)
    curve = _curve(levels, weights)
    t_peak, p_peak = _peak(curve, 0.0, 2.0 * t_run)
    return SweepRow(
        n=params.n,
        N=params.num_vertices,
        gamma_star=gamma,
        t_run=t_run,
        p_at_trun=_clamp(_curve_at(curve[0], t_run)[1]),
        t_peak=t_peak,
        p_peak=p_peak,
        gap=gap,
        gap_ratio=gap * scale,
        phase=gap * t_run,
        s_overlap_sq=(sd.overlaps[0] / levels[0]) ** 2 / sums[0],
        w_overlap_sq=1.0 / sums[0],
    )


def convergence_sweep(k: int, n_list, jobs: int = 1) -> list:
    """One :func:`asymptotics_row` per n, at the critical coupling throughout.

    ``n_list`` is a non-empty, strictly ascending iterable of integers.
    Rows are computed one after another in input order.  ``jobs`` must be
    an integer >= 1 and is otherwise ignored: a row costs well under a
    millisecond, and a thread pool was slower at every measured size.
    """
    _int(jobs, "jobs", 1)
    try:
        items = iter(n_list)
    except TypeError:
        raise DomainError(f"n_list must be an iterable of integers, got {n_list!r}") from None
    n_list = [_int(n, "each n of n_list") for n in items]
    if not n_list:
        raise DomainError("n_list must not be empty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError(f"n_list must be strictly ascending, got {n_list}")
    return [asymptotics_row(GraphParams(n=n, k=k)) for n in n_list]
