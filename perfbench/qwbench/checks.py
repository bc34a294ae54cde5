"""Independent references that every operation's output is checked against.

* sweep rows: a 50-digit mpmath model of the reduced Hamiltonian, built in
  shifted coordinates from exact integer spectra, at the row's own gamma and
  t_run; gamma_star and t_run against their exact values.
* oracle-build: the Johnson graph rebuilt from ``itertools.combinations`` in
  colex order, compared entry by entry with the program's Hamiltonian and
  distance classes.
* cli: the parsed report against the in-process public API.

A check returns a list of reasons; an empty list means the output passed.
"""

import itertools
import math
from fractions import Fraction

P_ABS_TOL = 1e-9        # the repository's oracle bound on probabilities
GAP_REL_TOL = 1e-6      # keeps the phase gap*t_run within ~3e-6 of pi
EXACT_REL_TOL = 1e-13   # gamma_star and t_run are closed forms
INVARIANCE_TOL = 1e-12
CLI_REL_TOL = 1e-12
MP_DIGITS = 50


def _rel(a, b) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def exact_spectrum(n: int, k: int):
    """N, adjacency eigenvalues lambda_l and multiplicities m_l as integers."""
    lambdas = [(k - l) * (n - k - l) - l for l in range(k + 1)]
    mults = [math.comb(n, l) - (math.comb(n, l - 1) if l else 0) for l in range(k + 1)]
    return math.comb(n, k), lambdas, mults


def exact_gamma_star(n: int, k: int) -> Fraction:
    """sum_{l>=1} p_l^2 / (lambda_0 - lambda_l) with p_l^2 = m_l / N, exactly."""
    big_n, lambdas, mults = exact_spectrum(n, k)
    return sum(Fraction(mults[l], big_n) / (lambdas[0] - lambdas[l]) for l in range(1, k + 1))


class SweepReference:
    """High-precision reduced model; results cached per (n, k, gamma, t)."""

    def __init__(self):
        try:
            import mpmath
        except ImportError as exc:
            raise SystemExit(
                "perfbench: the sweep checks need mpmath; install it, the checks are not skipped"
            ) from exc
        self.mpmath = mpmath
        self._cache = {}

    def model(self, n: int, k: int, gamma: float, t: float) -> dict:
        key = (n, k, gamma, t)
        if key not in self._cache:
            self._cache[key] = self._solve(n, k, gamma, t)
        return self._cache[key]

    def _solve(self, n, k, gamma, t):
        mpm = self.mpmath
        with mpm.workdps(MP_DIGITS):
            big_n, lambdas, mults = exact_spectrum(n, k)
            g = mpm.mpf(gamma)
            p = [mpm.sqrt(mpm.mpf(m) / big_n) for m in mults]
            # H - (-gamma*lambda_0) I = gamma*diag(lambda_0 - lambda_l) - p p^T:
            # the shift keeps the tiny gap at full relative precision and
            # cancels from |amplitude|^2.
            h = mpm.matrix(k + 1, k + 1)
            for i in range(k + 1):
                for j in range(k + 1):
                    h[i, j] = -p[i] * p[j]
                h[i, i] += g * (lambdas[0] - lambdas[i])
            values, vectors = mpm.eigsy(h)
            order = sorted(range(k + 1), key=lambda j: values[j])
            amp = mpm.mpc(0)
            for j in order:
                col = [vectors[i, j] for i in range(k + 1)]
                weight = col[0] * mpm.fsum(c * q for c, q in zip(col, p))
                amp += weight * mpm.expj(-values[j] * mpm.mpf(t))
            t_exact = mpm.pi * mpm.mpf(n) ** (mpm.mpf(k) / 2) / (2 * mpm.sqrt(math.factorial(k)))
            return {
                "gap": float(values[order[1]] - values[order[0]]),
                "p": float(abs(amp) ** 2),
                "t_run": float(t_exact),
            }

    def check_row(self, op: dict, row: dict) -> list:
        n, k = op["n"], op["k"]
        fields = ("gamma_star", "t_run", "p_at_trun", "gap")
        if row.get("n") != n or row.get("N") != math.comb(n, k):
            return [f"row is for n={row.get('n')}, N={row.get('N')}"]
        if not all(isinstance(row.get(f), float) and math.isfinite(row[f]) for f in fields):
            return ["non-finite or missing field"]
        reasons = []
        gamma_rel = float(abs(Fraction(row["gamma_star"]) / exact_gamma_star(n, k) - 1))
        if gamma_rel > EXACT_REL_TOL:
            reasons.append(f"gamma_star rel err {gamma_rel:.1e}")
        ref = self.model(n, k, row["gamma_star"], row["t_run"])
        if _rel(row["t_run"], ref["t_run"]) > EXACT_REL_TOL:
            reasons.append(f"t_run rel err {_rel(row['t_run'], ref['t_run']):.1e}")
        if abs(row["p_at_trun"] - ref["p"]) > P_ABS_TOL:
            reasons.append(f"p_at_trun abs err {abs(row['p_at_trun'] - ref['p']):.1e}")
        if _rel(row["gap"], ref["gap"]) > GAP_REL_TOL:
            reasons.append(f"gap rel err {_rel(row['gap'], ref['gap']):.1e}")
        return reasons


def check_report(checks: list, all_passed: bool) -> list:
    """oracle: every residual at or below its threshold, and all_passed set."""
    reasons = [f"{name}: residual {res!r} > {thr!r}" for name, res, thr in checks
               if not (isinstance(res, float) and res <= thr)]
    if not checks:
        reasons.append("no checks reported")
    if not all_passed:
        reasons.append("all_passed is false")
    return reasons


def colex_subsets(n: int, k: int):
    """k-subsets of {0..n-1} in colexicographic order (vertex id order)."""
    return sorted(itertools.combinations(range(n), k), key=lambda c: c[::-1])


class BuildReference:
    """J(n,k) adjacency pattern and element incidence, built once per (n, k)."""

    def __init__(self):
        self._cache = {}

    def graph(self, n: int, k: int):
        import numpy as np

        if (n, k) not in self._cache:
            subsets = np.array(colex_subsets(n, k), dtype=np.int64)
            incidence = np.zeros((len(subsets), n), dtype=np.float32)
            np.put_along_axis(incidence, subsets, 1.0, axis=1)
            adjacency = np.empty((len(subsets), len(subsets)), dtype=bool)
            for lo in range(0, len(subsets), 512):
                adjacency[lo:lo + 512] = incidence[lo:lo + 512] @ incidence.T == k - 1
            self._cache[(n, k)] = (incidence, adjacency)
        return self._cache[(n, k)]

    def check(self, op: dict, gamma: float, h, classes, residual: float) -> list:
        """Row sums k(n-k), exact entries, class sizes and members, invariance."""
        import numpy as np

        n, k, w = op["n"], op["k"], op["w"]
        incidence, adjacency = self.graph(n, k)
        big_n = len(adjacency)
        reasons = []
        if h.shape != (big_n, big_n):
            return [f"Hamiltonian shape {h.shape}, expected {(big_n, big_n)}"]
        degree = k * (n - k)
        sums = -h.sum(axis=1)
        sums[w] -= 1.0
        if np.max(np.abs(sums - gamma * degree)) > 1e-12 * gamma * degree:
            reasons.append("adjacency row sums differ from k(n-k)")
        nonzero = h != 0
        nonzero[w, w] = False
        if h[w, w] != -1.0 or not np.array_equal(nonzero, adjacency) or \
                not np.all(h[adjacency] == -gamma):
            reasons.append("Hamiltonian entries differ from -gamma*A - |w><w|")
        distance = k - incidence @ incidence[w]
        sizes = [len(c) for c in classes]
        expected = [math.comb(k, l) * math.comb(n - k, l) for l in range(k + 1)]
        if sizes != expected:
            reasons.append(f"class sizes {sizes} != {expected}")
        elif not all(np.array_equal(np.sort(c), np.flatnonzero(distance == l))
                     for l, c in enumerate(classes)):
            reasons.append("distance classes hold the wrong vertices")
        if not residual <= INVARIANCE_TOL:
            reasons.append(f"invariance residual {residual!r} > {INVARIANCE_TOL}")
        return reasons


def close(a, b, rel=CLI_REL_TOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))
