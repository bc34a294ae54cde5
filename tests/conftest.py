import tempfile

from hypothesis import configuration, settings

# Every run draws the same examples and keeps no example database on disk.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# Hypothesis also caches the constants it reads from the tested source, at
# collection time; a temporary directory, removed at exit, keeps that cache
# out of the tree.
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_STORAGE.name)


def probs_at(levels, weights, times):
    """Test-only oracle: the success curve p(t) = |sum_j w_j e^{-iE_j t}|^2
    of a curve's levels and weights at the given times, summed point by
    point and clamped like the package's curves.  The weights enter as a
    d x 1 matrix: a 1-D product takes another BLAS path, whose sums round
    differently."""
    import numpy as np

    import qwsearch as qw

    amps = np.exp(-1j * np.outer(times, levels)) @ np.asarray(weights, dtype=float)[:, None]
    return qw.dynamics._clamp_probs(np.abs(amps[:, 0]) ** 2)


def centred(levels, weights):
    """The levels shifted to the midpoint of the two of largest |w_j|, as
    find_peak evaluates the curve; p is unchanged, and the phases, and their
    rounding, stay small."""
    import numpy as np

    levels = np.asarray(levels, dtype=float)
    a, b = np.argsort(-np.abs(weights), kind="stable")[:2]
    return levels - (levels[a] + levels[b]) / 2


def peak_beta(levels, weights, t1):
    """find_peak's stated bound beta = 12 eps m_0 (t1 m_1 + d + 5), with
    m_r = sum_j |w_j| |e_j|^r over the d centred levels e_j."""
    import numpy as np

    weights = np.asarray(weights, dtype=float)
    e = centred(levels, weights)
    m0, m1 = np.sum(np.abs(weights)), np.sum(np.abs(weights * e))
    return float(12 * 2.0**-52 * m0 * (t1 * m1 + len(e) + 5))


def scan_max(levels, weights, t0, t1, m, chunk=50_001):
    """The largest p of the centred curve at the m times np.linspace(t0, t1,
    m), evaluated point by point (probs_at) in chunks."""
    import numpy as np

    times, e = np.linspace(t0, t1, m), centred(levels, weights)
    return max(
        float(probs_at(e, weights, times[i : i + chunk]).max()) for i in range(0, m, chunk)
    )


def mp_reduced(params, gamma, times, dps=120):
    """A dps-digit model of the reduced problem at the float gamma, from
    exact integer spectra: mpmath's eigsy of the shifted matrix
    gamma*diag(l(n-l+1)) - p p^T.  Returns the levels mu_j and weights w_j
    (ascending), the gap, the ground state's overlaps with e_0 and p, and p
    at each of the times, each as a float.

    A dps below 40 - log10(min_j |w_j|) is refused with AssertionError: at
    120 digits J(1e16, 8)'s smallest weight, 3.2e-167, comes out 7.5e-10
    off and J(1e18, 8)'s, 3.2e-189, with the wrong sign.  Against 600
    digits, on the accuracy grid, the given-gamma cases, the acceptance
    sweeps and k = 1..8 at n = 1e14 and 1e17, each at 50 to 300 digits,
    every call this admits returned the same floats, and every call that
    did not had at least 6.5 digits fewer than -log10(min_j |w_j|)."""
    import math

    import mpmath

    n, k, big_n = params.n, params.k, params.num_vertices
    with mpmath.workdps(dps):
        p = [mpmath.sqrt(mpmath.mpf(math.comb(n, l) - (math.comb(n, l - 1) if l else 0)) / big_n)
             for l in range(k + 1)]
        h = mpmath.matrix(k + 1, k + 1)
        for i in range(k + 1):
            for j in range(k + 1):
                h[i, j] = -p[i] * p[j]
            h[i, i] += mpmath.mpf(gamma) * (i * (n - i + 1))
        values, vectors = mpmath.eigsy(h)
        order = sorted(range(k + 1), key=lambda j: values[j])
        levels = [values[j] for j in order]
        columns = [[vectors[i, j] for i in range(k + 1)] for j in order]
        weights = [col[0] * mpmath.fsum(c * q for c, q in zip(col, p)) for col in columns]
        need = 40 - mpmath.log10(min(abs(w) for w in weights))
        assert dps >= need, f"mp_reduced needs {int(mpmath.ceil(need))} digits at J({n},{k}), got {dps}"
        probs = [
            abs(mpmath.fsum(w * mpmath.expj(-e * mpmath.mpf(t)) for e, w in zip(levels, weights))) ** 2
            for t in times
        ]
        ground = columns[0]
        return {
            "levels": [float(e) for e in levels],
            "weights": [float(w) for w in weights],
            "gap": float(levels[1] - levels[0]),
            "s_overlap_sq": float(ground[0] ** 2),
            "w_overlap_sq": float(mpmath.fsum(c * q for c, q in zip(ground, p)) ** 2),
            "probs": [float(x) for x in probs],
        }


def sup_distance_reference(curve_a, curve_b, t_max):
    """Test-only reference for validation._sup_distance: the same bound on
    max |p_a - p_b| over [0, t_max] for two curves (levels, weights, beta),
    each sum a plain float sum left to right in a pass of its own.  The
    curve with fewer levels has weight 0 on the levels it lacks, so the
    weight sums run over the longer curve and the level drift stops at the
    shorter one; rounding adds eps W^2 ((d+1)(t max|E| + 1) + 3) per curve
    of d levels; a curve against itself is 0.0."""

    def total(values):
        # sum() compensates from Python 3.12 on
        result = 0.0
        for x in values:
            result += x
        return result

    if curve_a is curve_b:
        return 0.0
    (levels_a, weights_a, beta_a), (levels_b, weights_b, beta_b) = curve_a, curve_b
    mass_a, mass_b = total(map(abs, weights_a)), total(map(abs, weights_b))
    longest = max(len(weights_a), len(weights_b))
    padded_a = list(weights_a) + [0.0] * (longest - len(weights_a))
    padded_b = list(weights_b) + [0.0] * (longest - len(weights_b))
    spread = total(abs(x - y) for x, y in zip(padded_a, padded_b))
    drift = total(abs(w * (x - y)) for x, y, w in zip(levels_a, levels_b, weights_b))
    bound = (mass_a + mass_b) * (spread + (drift + beta_a + beta_b) * t_max)
    for e, mass in ((levels_a, mass_a), (levels_b, mass_b)):
        bound += 2.0**-52 * mass * mass * ((len(e) + 1) * (t_max * max(map(abs, e)) + 1) + 3)
    return bound


def invariance_residual_reference(record, image, label):
    """Test-only reference for validation._invariance_residual: row l of
    the class image minus its class-wise means, one bincount per row, in
    numpy.linalg.norm, scaled by 1/sqrt(|class_l|); the largest row."""
    import numpy as np

    means = np.array([np.bincount(label, weights=row) for row in image]) / record.size_array
    residual = np.linalg.norm(image - means[:, label], axis=1) / record.size_roots
    return float(np.max(residual))


def embedding_residual_reference(record, a, gamma, h_red, w):
    """Test-only reference for validation._embedding_residual: the columns
    of the exact projector basis normalised by numpy.linalg.norm with the
    sign of entry w, conjugated by -gamma*A - |w><w| with np.outer, less
    h_red, largest modulus."""
    import numpy as np

    import qwsearch as qw

    basis = qw.validation._projector_basis(record, a, w)
    basis /= np.copysign(np.linalg.norm(basis, axis=0), basis[w])
    conjugated = -gamma * (basis.T @ (a @ basis)) - np.outer(basis[w], basis[w])
    return float(np.max(np.abs(conjugated - h_red)))
