"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Small instances are checked against full-Hilbert-space oracles; asymptotic
laws are checked as monotone trends along geometric n-sweeps of the cheap
(k+1)-dimensional model, with endpoint values pinned from the first oracle
run of this implementation.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import mp_reduced

import qwsearch as qw
from qwsearch.coupling import _CLOSED_LEAD, _CLOSED_NUM, from_graph

# 1 - p_succ(t_run) observed at n = 1e6: 2.5e-7 (k=1), 2.0e-6 (k=2),
# 7.5e-7 (k=3); threshold pinned well below with margin, above the
# expected >= 0.99
P_SUCC_MIN_AT_1E6 = 0.9999

SWEEP_NS = [10**2, 10**3, 10**4, 10**5, 10**6]
MONO_SLACK = 1e-12


def evolve(dec, psi, t):
    """Reference exp(-iHt) psi, H given by its eigendecomposition."""
    values, vectors = dec
    return vectors @ (np.exp(-1j * values * t) * (vectors.T @ psi))


def energy(m, psi):
    """Reference <psi| M |psi> for a real symmetric M and a complex state."""
    return float(np.real(np.conj(psi) @ (m @ psi)))


def exact_gamma_star(n, k):
    """gamma* = sum_{l>=1} m_l / (N l(n-l+1)) as a Fraction, from binomials."""
    n_vert = math.comb(n, k)
    return sum(
        Fraction(math.comb(n, l) - math.comb(n, l - 1), n_vert * l * (n - l + 1))
        for l in range(1, k + 1)
    )


def small_instances(k_max=3, n_max=12):
    for k in range(1, k_max + 1):
        for n in range(2 * k, n_max + 1):
            yield qw.GraphParams(n, k)


@pytest.fixture(scope="module")
def sweeps():
    return {k: qw.convergence_sweep(k, SWEEP_NS) for k in (1, 2, 3)}


def strictly_decreasing(values):
    return all(b < a + MONO_SLACK for a, b in zip(values, values[1:]))


def report(number, text):
    print(f"ACCEPTANCE {number}: {text} -- PASS")


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for params in small_instances():
        gamma = qw.gamma_star(params)
        diff = qw.compare_full_reduced(params, gamma, 0, 2 * qw.run_time(params))
        assert diff <= 1e-9, f"{params}: full/reduced differ by {diff:.3e}"
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(1, f"full vs reduced <= 1e-9 on all k<=3, n<=12 grids "
              f"(worst {worst:.3e}, {elapsed:.1f}s)")


def test_criterion_2_spectrum():
    for params in small_instances():
        rep = qw.check_spectrum(params)
        values = next(c for c in rep.checks if c.name == "spectrum_values")
        mults = next(c for c in rep.checks if c.name == "spectrum_multiplicities")
        assert values.residual <= 1e-8, f"{params}: eigenvalue residual {values.residual:.3e}"
        assert mults.residual == 0.0, f"{params}: multiplicity mismatch"
    report(2, "closed-form spectrum matches dense eigensolve, multiplicities exact")


def test_criterion_3_overlap_routes():
    worst_rel = 0.0
    worst_sum = 0.0
    for k in range(1, 9):
        for n in range(2 * k, 61):
            params = qw.GraphParams(n, k)
            total = []
            for ell in range(k + 1):
                via_mult = qw.multiplicity(params, ell) / params.num_vertices
                via_fact = qw.overlap_sq_factorial(params, ell)
                rel = abs(via_mult - via_fact) / via_fact
                assert rel <= 1e-13, f"{params} ell={ell}: routes differ by {rel:.3e}"
                worst_rel = max(worst_rel, rel)
                total.append(via_mult)
            gap = abs(math.fsum(total) - 1.0)
            assert gap <= 1e-14
            worst_sum = max(worst_sum, gap)
    report(3, f"p_l^2 routes agree to 1e-13 for n<=60, k<=8 "
              f"(worst {worst_rel:.3e}); completeness to 1e-14 (worst {worst_sum:.3e})")


def test_criterion_4_gamma_closed_forms():
    for k in (3, 4, 5):
        for n in (*range(2 * k, 200), 10**3, 10**6, 10**9, 10**12):
            # the published polynomial in Fractions at x = 1/n is gamma* exactly
            x = Fraction(1, n)
            poly = sum(Fraction(int(c)) * x**i for i, c in enumerate(_CLOSED_NUM[k]))
            den = int(_CLOSED_LEAD[k]) * math.prod((1 - j * x) ** 2 for j in range(1, k))
            exact = exact_gamma_star(n, k)
            assert x * (1 - k * x) * poly / den == exact, f"k={k} n={n}"
            params = qw.GraphParams(n, k)
            star = qw.gamma_star(params)
            assert star == float(exact)
            closed = qw.gamma_closed_form(from_graph(params))
            assert abs(closed - star) / star <= 1e-12

    def resid(n):
        x = Fraction(1, n)
        return exact_gamma_star(n, 3) - x / 3 - 7 * x**2 / 6

    ratio = resid(100) / resid(400)
    assert 64 * 0.995 <= ratio <= 64 * 1.005, f"ratio {float(ratio):.3f} not ~64"
    n = 10**6
    limit = float(n**3 * resid(n))
    assert abs(limit - 29 / 6) <= 2e-6, f"n^3 * resid {limit:.7f} not ~29/6"
    report(4, f"closed forms k=3,4,5 equal the exact rational gamma* for n=2k..199 "
              f"and n=1e3..1e12, the float forms within 1e-12; k=3 series residual "
              f"scales as n^-3 (ratio {float(ratio):.3f}, n^3*resid -> {limit:.7f})")


def test_criterion_5_convergence_to_unity(sweeps):
    start = time.perf_counter()
    fresh = {k: qw.convergence_sweep(k, SWEEP_NS) for k in (1, 2, 3)}
    elapsed = time.perf_counter() - start
    for k, rows in fresh.items():
        errs = [1.0 - r.p_at_trun for r in rows]
        assert strictly_decreasing(errs), f"k={k}: 1-p not decreasing: {errs}"
        assert rows[-1].p_at_trun >= P_SUCC_MIN_AT_1E6, (
            f"k={k}: p at n=1e6 is {rows[-1].p_at_trun}"
        )
    assert elapsed < 1.0, f"reduced-model sweep took {elapsed:.2f}s"
    report(5, f"1 - p(t_run) strictly decreasing, p >= {P_SUCC_MIN_AT_1E6} at n=1e6 "
              f"({elapsed*1000:.0f} ms for all sweeps)")


def test_criterion_6_gap_and_phase_laws(sweeps):
    for k, rows in sweeps.items():
        ratio_errs = [abs(r.gap_ratio - 1.0) for r in rows]
        phase_errs = [abs(r.phase - math.pi) for r in rows]
        assert strictly_decreasing(ratio_errs), f"k={k}: |gap_ratio-1| not decreasing"
        assert strictly_decreasing(phase_errs), f"k={k}: |phase-pi| not decreasing"
        assert ratio_errs[-1] <= 0.05
        assert phase_errs[-1] <= 0.05 * math.pi
    report(6, "gap*n^(k/2)/(2 sqrt(k!)) -> 1 and gap*t_run -> pi, monotonically")


def test_criterion_7_ground_state_structure(sweeps):
    # Each overlap within 1e-15 of a 120-digit model at the row's gamma*, so
    # the strict decrease (1.788e-8 to 1.750e-8 between n = 1e5 and 1e6 at
    # k = 3) is the model's, not rounding's.
    for k, rows in sweeps.items():
        for r in rows:
            ref = mp_reduced(qw.GraphParams(r.n, k), r.gamma_star, ())
            assert abs(r.s_overlap_sq - ref["s_overlap_sq"]) <= 1e-15, (k, r.n)
            assert abs(r.w_overlap_sq - ref["w_overlap_sq"]) <= 1e-15, (k, r.n)
        s_errs = [abs(r.s_overlap_sq - 0.5) for r in rows]
        w_errs = [abs(r.w_overlap_sq - 0.5) for r in rows]
        assert strictly_decreasing(s_errs), f"k={k}: |<s|g>|^2 drift not decreasing"
        assert strictly_decreasing(w_errs), f"k={k}: |<w|g>|^2 drift not decreasing"
        assert s_errs[-1] < 1e-3 and w_errs[-1] < 1e-3
    report(7, "ground-state overlaps with e_0 and p each converge to 1/2")


def test_criterion_8_numerics_hygiene():
    rng = np.random.default_rng(20250810)
    worst = {"norm": 0.0, "reversal": 0.0, "semigroup": 0.0, "energy": 0.0}
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(2 * k, 2 * k + 400))
        params = qw.GraphParams(n, k)
        gamma = qw.gamma_star(params) * (0.5 + rng.random())
        m = qw.reduced_hamiltonian(params, gamma)
        dec = qw.sym_eig(m)
        psi = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
        psi /= np.linalg.norm(psi)

        t = float(rng.uniform(0.0, 2 * qw.run_time(params)))
        out = evolve(dec, psi, t)
        worst["norm"] = max(worst["norm"], abs(np.linalg.norm(out) - 1.0))
        worst["reversal"] = max(
            worst["reversal"], float(np.max(np.abs(evolve(dec, out, -t) - psi)))
        )
        # keep the phase arguments moderate for the semigroup identity: the
        # rounding of t1+t2 alone contributes ||H||*ulp(t1+t2) to the bound
        t1, t2 = float(rng.uniform(0, 50)), float(rng.uniform(0, 50))
        once = evolve(dec, psi, t1 + t2)
        twice = evolve(dec, evolve(dec, psi, t1), t2)
        worst["semigroup"] = max(worst["semigroup"], float(np.max(np.abs(once - twice))))

        e_ref = energy(m, psi)
        worst["energy"] = max(worst["energy"], abs(energy(m, out) - e_ref))
    assert worst["norm"] <= 1e-12, worst
    assert worst["reversal"] <= 1e-12, worst
    assert worst["semigroup"] <= 1e-12, worst
    assert worst["energy"] <= 1e-10, worst
    report(8, "norm/reversal/semigroup to 1e-12 and energy to 1e-10 "
              f"over 1000 random instances (worst {max(worst.values()):.3e})")


def test_criterion_9_cli_determinism():
    cmd = [sys.executable, "-m", "qwsearch"]
    # the children import the same qwsearch as this process, installed or not
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(qw.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def run(*args):
        res = subprocess.run(cmd + list(args), capture_output=True, env=env, timeout=120)
        assert res.returncode == 0, res.stderr
        return res.stdout

    sweep_args = ("sweep", "--k", "2", "--n-list", "100,1000,10000")
    a = run(*sweep_args)
    b = run(*sweep_args)
    c = run(*sweep_args, "--jobs", "4")
    assert a and a == b == c
    v1 = run("validate", "--n", "6", "--k", "3")
    v2 = run("validate", "--n", "6", "--k", "3")
    assert v1 == v2
    j1 = run("sweep", "--k", "1", "--n-list", "100,1000", "--format", "json")
    j2 = run("sweep", "--k", "1", "--n-list", "100,1000", "--format", "json", "--jobs", "2")
    assert j1 == j2
    report(9, "repeated CLI invocations byte-identical, with and without parallelism")
