"""Reduced-model accuracy against a 50-digit reference.

The reference decomposes the same shifted matrix as the program,
gamma*diag(lambda_0 - lambda_l) - p p^T, from exact integer spectra in
mpmath.  The ground-state sensitivity to rounding is about
ulp * ||H|| / gap, and the gap is about 2/sqrt(N), so the gap's relative
error and the ground-state overlap's absolute error scale as eps * sqrt(N).
On this grid the shifted LAPACK solve stays within 0.45 (gap) and 0.21
(overlap) of eps * sqrt(N), and the package's earlier eigensolver within 0.56
and 0.23; an unshifted LAPACK solve of -gamma*diag(lambda) - p p^T reaches
0.71 and 0.48, which the bounds below reject.
"""

import math

import numpy as np
import pytest

import qwsearch as qw

mpmath = pytest.importorskip("mpmath")

EPS = np.finfo(np.float64).eps
GAP_REL_BOUND = 0.65  # times eps * sqrt(N)
OVERLAP_ABS_BOUND = 0.3  # times eps * sqrt(N)
P_ABS_TOL = 1e-13


def reference(params: qw.GraphParams, gamma: float, t: float) -> dict:
    n, k = params.n, params.k
    with mpmath.workdps(50):
        lambdas = [(k - l) * (n - k - l) - l for l in range(k + 1)]
        p = [mpmath.sqrt(mpmath.mpf(qw.multiplicity(params, l)) / params.num_vertices)
             for l in range(k + 1)]
        h = mpmath.matrix(k + 1, k + 1)
        for i in range(k + 1):
            for j in range(k + 1):
                h[i, j] = -p[i] * p[j]
            h[i, i] += mpmath.mpf(gamma) * (lambdas[0] - lambdas[i])
        values, vectors = mpmath.eigsy(h)
        order = sorted(range(k + 1), key=lambda j: values[j])
        amp = mpmath.mpc(0)
        for j in order:
            col = [vectors[i, j] for i in range(k + 1)]
            weight = col[0] * mpmath.fsum(c * q for c, q in zip(col, p))
            amp += weight * mpmath.expj(-values[j] * mpmath.mpf(t))
        return {
            "gap": float(values[order[1]] - values[order[0]]),
            "p_at_trun": float(abs(amp) ** 2),
            "s_overlap_sq": float(vectors[0, order[0]] ** 2),
        }


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [10**2, 10**3, 10**4, 10**5])
def test_sweep_row_matches_high_precision_reference(n, k):
    params = qw.GraphParams(n, k)
    row = qw.asymptotics_row(params)
    ref = reference(params, row.gamma_star, row.t_run)
    scale = EPS * math.sqrt(params.num_vertices)
    assert abs(row.gap - ref["gap"]) / ref["gap"] <= GAP_REL_BOUND * scale
    assert abs(row.s_overlap_sq - ref["s_overlap_sq"]) <= OVERLAP_ABS_BOUND * scale
    assert abs(row.p_at_trun - ref["p_at_trun"]) <= P_ABS_TOL
