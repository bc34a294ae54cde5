"""Checks tying the reduced model to the full Hilbert space and to the
asymptotic predictions.

Small instances get exact oracles: the dense adjacency spectrum against
the closed forms, invariance of the distance-class span under A, the
embedding of the reduced Hamiltonian inside the full one, and the
full-space success-probability curve against the reduced-model curve.

One N x N array, the adjacency A, serves every full-space check, and the
only dense eigensolve is the values-only ``eigvalsh`` of the spectrum
check, made once per graph.  J(n,k) is vertex-transitive, so what depends
on (n, k) alone is computed once per graph and kept per process in one
record: the closed-form spectrum, gamma*, t_max, the reduced model's
curve, H_red at gamma*, the distance-class sizes, the integer projector
basis's polynomial coefficients and exactness bound, and, formed on first
read, the spectrum and overlap checks.  All but the spectrum check come
from (n, k) in work that does not grow with N or n, so the record builds
no array of size N; the colex index of :mod:`qwsearch.johnson` is only
the graph, each of its arrays built on first read.  Each further marked vertex
pays only for its own work, in a number of numpy calls fixed by k: its
distance labels and class image (one bincount and k row gathers), whose
class sums are one more bincount; A;
its projector basis (k-1 products of A with a vector and one with the
coefficients); the two Lanczos runs, stepping together, each step one
product of A with their 2 x N block and two Gram-Schmidt passes of two
stacked matrix-vector products, then one stacked eigensolve; and the two
bounds in Python floats.  The full-space curves come from
Lanczos on the full H = -gamma*A - |w><w| started at |s>: the
distance-class span holds |s> and |w> and is invariant under H, so the
Krylov space closes after at most k+1 steps and the curve of its
(k+1) x (k+1) tridiagonal is exact up to the closing beta times t (Saad,
SIAM J. Numer. Anal. 29, 209 (1992)).  Each comparison of a mark
with the reduced model runs the pair w, w + 1 mod N in one batch, whose
runs close at one step.  A run that does not close, or a batch whose runs
close at different steps, is refused, never truncated.  A curve, from
either model, is one immutable triple (levels, weights, beta) of Python
floats: the levels E_j and weights w_j of p(t) = |sum_j w_j e^{-iE_j t}|^2
and the closing beta of its Lanczos run, 0.0 for the reduced model, whose
secular solve gives its weights without eigenvectors.  Two curves are
compared by a bound over all of [0, t_max] read off those triples.

Large instances are covered through the reduced model alone, where the
perturbation analysis shows up as measurable spectral facts at the
critical coupling: the gap between the two lowest levels approaches
2*sqrt(k!)*n^(-k/2) (so gap * run_time -> pi), the ground state splits
evenly between the start state e_0 and the marked state p, and the
success probability at run_time tends to 1.  Convergence sweeps record
exactly those quantities per n; they run on the numpy-free reduced model
(:mod:`qwsearch.reduced`), and their names are importable from here too.
"""

import functools
import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import coupling
from .dynamics import sym_eig
from .domain import DEFAULT_FULL_CAP, GraphParams, _check_coupling, _int
from .errors import NumericalError
from .johnson import (
    _INDEX_MEMO_SIZE,
    _adjacency,
    _class_image,
    _colex_index,
    _distance_labels,
    _memo_colex_index,
    adjacency_matrix,
)
# SweepRow, asymptotics_row and convergence_sweep are re-exported.
from .reduced import SweepRow, _check_time, _solve, asymptotics_row, convergence_sweep, run_time
from .spectral import (
    SpectralData,
    _eigenvalue,
    _reduced_matrix,
    multiplicity,
    overlap_sq_factorial,
    spectral_data,
)

# Dense eigenvalues are assigned to closed-form levels within this distance;
# the closed-form levels are integers n - 2l >= 2 apart, a 1e6 safety margin.
_CLUSTER_TOL = 1e-6

# A Lanczos run has closed once its beta is at most this times the norm
# bound gamma*k(n-k) + 1 of H.
_CLOSURE_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _lanczos(a, gamma, marks, params) -> tuple:
    # The curve (levels, weights, beta) of |s> to |w> under H_w = -gamma*A
    # - |w><w|, for each mark w, by Lanczos with full reorthogonalisation.
    # The runs step together: one product of A with a len(marks) x N block
    # per step, and BLAS inner products (einsum's sums over N lose about ten
    # times more digits).  The distance-class span is invariant under H_w,
    # so a run must close, beta <= _CLOSURE_TOL * (gamma*k(n-k) + 1), within
    # k+1 steps or is refused.  Every eigenvector of the reduced matrix has
    # a nonzero e_0 entry, so every mark's Krylov space has the same
    # dimension: the runs close at one step, a batch whose runs do not is
    # refused, and one sym_eig call serves the batch.
    n_vert, n_marks, steps = len(a), len(marks), params.k + 1
    tol = _CLOSURE_TOL * (gamma * params.degree + 1.0)
    basis = np.empty((n_marks, steps, n_vert))
    basis[:, 0] = 1.0 / math.sqrt(n_vert)
    tri = np.zeros((n_marks, steps, steps))
    for j in range(steps):
        q = basis[:, j]
        r = q @ a  # A is symmetric
        r *= -gamma
        for m, w in enumerate(marks):
            r[m, w] -= q[m, w]
        # Gram-Schmidt twice against every earlier vector, on r as a stack
        # of 1 x N rows.
        row, done = r[:, None], basis[:, : j + 1]
        done_t = done.transpose(0, 2, 1)
        coef = row @ done_t
        row -= coef @ done
        again = row @ done_t
        row -= again @ done
        np.add(coef[:, 0, j], again[:, 0, j], out=tri[:, j, j])
        norms = np.sqrt(np.add.reduce(r * r, axis=1))
        betas = norms.tolist()
        closed = sum(b <= tol for b in betas)
        if closed == n_marks:
            break
        if closed:
            raise NumericalError(
                f"Lanczos runs on the full search Hamiltonian closed at different "
                f"steps: {closed} of {n_marks} closed at step {j + 1}"
            )
        if j + 1 < steps:
            tri[:, j, j + 1] = tri[:, j + 1, j] = norms
            np.divide(r, norms[:, None], out=basis[:, j + 1])
    else:
        raise NumericalError(
            f"Lanczos on the full search Hamiltonian did not close within "
            f"{steps} steps: beta {max(betas):.3e} above {tol:.3e}"
        )
    dim = j + 1
    values, vectors = sym_eig(tri[:, :dim, :dim])
    # With Q the basis and |s> = Q e_0, the amplitude of |w> is <w| Q V
    # e^{-iEt} V^T e_0 = sum_j (V[0,j] * (V^T Q^T w)_j) e^{-iE_j t}.
    return tuple(
        (tuple(levels), tuple((v[0] * (v.T @ basis[m, :dim, w])).tolist()), beta)
        for m, (w, v, levels, beta) in enumerate(zip(marks, vectors, values.tolist(), betas))
    )


def _reduced_curve(sd: SpectralData, gamma: float) -> tuple:
    # The reduced model's curve of e_0 to p at a checked gamma, sd being the
    # instance's spectral_data: the secular solve's levels less
    # gamma*lambda_0, its weights and beta 0.0.
    levels, weights, *_ = _solve(sd, gamma)
    shift = gamma * sd.lambdas[0]
    return tuple([x - shift for x in levels]), weights, 0.0


def _total(values) -> float:
    # A float sum left to right: sum() compensates from Python 3.12 on, and
    # the bounds must not depend on the interpreter.
    total = 0.0
    for x in values:
        total += x
    return total


def _sup_distance(curve_a, curve_b, t_max) -> float:
    # A bound on max |p_a - p_b| over 0 <= t <= t_max for curves (levels,
    # weights, beta), p = |A|^2, A(t) = sum_j w_j e^{-iE_j t}:
    # |A_a - A_b| <= sum_j |w_a,j - w_b,j| + t sum_j |w_b,j| |E_a,j - E_b,j|
    # with levels in ascending order (a curve with fewer levels has weight 0
    # and its partner's E on the levels it lacks, so zip stops at the shorter
    # run), plus beta*t per Lanczos run, and |p_a - p_b| <= |A_a - A_b| (W_a
    # + W_b), W = sum_j |w_j|.  Rounding adds eps W^2 ((d+1)(t max|E| + 1) +
    # 3) per curve of d levels, eps = 2**-52: eigh's and the secular solve's
    # levels are good to d eps max|E|, each phase rounds once more, and the
    # exponential, d-term sum and modulus add d + 4.  A curve against itself
    # is 0.0.
    if curve_a is curve_b:
        return 0.0
    (levels_a, weights_a, beta_a), (levels_b, weights_b, beta_b) = curve_a, curve_b
    mass_a, mass_b = _total(map(abs, weights_a)), _total(map(abs, weights_b))
    spread = _total(abs(x - y) for x, y in zip_longest(weights_a, weights_b, fillvalue=0.0))
    drift = _total(abs(w * (x - y)) for x, y, w in zip(levels_a, levels_b, weights_b))
    bound = (mass_a + mass_b) * (spread + (drift + beta_a + beta_b) * t_max)
    for e, mass in ((levels_a, mass_a), (levels_b, mass_b)):
        bound += 2.0**-52 * mass * mass * ((len(e) + 1) * (t_max * max(map(abs, e)) + 1) + 3)
    return bound


def compare_full_reduced(
    params: GraphParams, gamma: float, w: int, t_max: float, cap: int = DEFAULT_FULL_CAP
) -> float:
    """A bound on max |p_full(t) - p_reduced(t)| over 0 <= t <= t_max.

    ``t_max`` must be a real t_max >= 0 with (gamma*k(n-k) + 1)*t_max
    finite; anything else, an array of times included, is refused with
    :class:`DomainError` before the adjacency is built.  The full curve of
    |s> under the N x N Hamiltonian -gamma*A - |w><w| comes from Lanczos on
    the dense A, closed after at most k+1 steps or refused with
    :class:`NumericalError`; the reduced one from the (k+1)-dimensional
    model.  The bound is read off both curves' levels E_j and weights w_j
    and the run's closing beta, so it holds at every t up to t_max.  Their
    agreement is the core oracle for everything the reduced model is used
    for.  w runs beside w + 1 mod N, the pair of :func:`validate_instance`:
    at t_max = 2*run_time this is its oracle_equivalence, bit for bit.
    """
    gamma, t_max = _check_time(params, gamma, t_max, "t_max")
    w = _int(w, "marked vertex w", 0, params.num_vertices - 1)
    full = _full_lanczos(params, gamma, (w, (w + 1) % params.num_vertices), cap)[0]
    return _sup_distance(full, _reduced_curve(_memo_graph(params).sd, gamma), t_max)


def _full_lanczos(params, gamma, marks, cap) -> tuple:
    # The curves of _lanczos on a fresh A, one per distinct mark; the caller
    # has checked gamma and the marks.
    marks = tuple(dict.fromkeys(marks))
    return _lanczos(adjacency_matrix(params, cap), gamma, marks, params)


def compare_marked_vertices(
    params: GraphParams, gamma: float, w1: int, w2: int, t_max: float,
    cap: int = DEFAULT_FULL_CAP,
) -> float:
    """A bound on the difference between the full-space success curves of
    two marked vertices over 0 <= t <= t_max.

    Vertex-transitivity makes the marked choice immaterial; this measures
    exactly that.  One dense adjacency serves both curves, whose Lanczos
    runs step together as in :func:`validate_instance`: at t_max =
    2*run_time and w2 = w1 + 1 mod N this is its vertex_independence, bit
    for bit.  w1 == w2 runs once and reads exactly 0.0.  See
    :func:`compare_full_reduced` for the contract on ``t_max`` and the bound.
    """
    gamma, t_max = _check_time(params, gamma, t_max, "t_max")
    last = params.num_vertices - 1
    marks = _int(w1, "marked vertex w1", 0, last), _int(w2, "marked vertex w2", 0, last)
    curves = _full_lanczos(params, gamma, marks, cap)
    return _sup_distance(curves[0], curves[-1], t_max)


@dataclass(frozen=True)
class _GraphRecord:
    # What the full-space checks read from (n, k) alone, immutable, arrays
    # read-only: the reduced model's curve (levels, weights, beta) and
    # matrix at gamma = gamma*; the class sizes |class l| = C(k,l)*C(n-k,l)
    # and their square roots; column l of coefficients holds those of
    # prod_{j != l} (x - lambda_j), constant term first, and basis_bound =
    # prod_j f_j / min_j f_j, f_j = lambda_0 + |lambda_j|, bounds them and
    # every entry and partial sum of the projector basis.
    sd: SpectralData
    gamma: float
    t_max: float
    reduced: tuple
    h_red: np.ndarray
    size_array: np.ndarray
    size_roots: np.ndarray
    coefficients: np.ndarray
    basis_bound: int

    @functools.cached_property
    def checks(self) -> tuple:
        # spectrum_values, spectrum_multiplicities and overlap_consistency,
        # formed on first read.  Callers check their cap first, so A is
        # built from the memoised index with no cap of its own, and dropped
        # before this returns, ahead of the caller's own A.  eigvalsh's
        # values are ascending.
        sd, params = self.sd, self.sd.params
        dense = np.linalg.eigvalsh(_adjacency(_memo_colex_index(params)))
        expanded = np.repeat(sd.lambdas[::-1], sd.mults[::-1])
        value_residual = float(np.max(np.abs(dense - expanded)))
        counts = np.count_nonzero(np.abs(dense[:, None] - sd.lambdas) <= _CLUSTER_TOL, axis=0)
        mismatches = np.count_nonzero(counts != sd.mults)
        return (
            CheckResult("spectrum_values", value_residual, 1e-8),
            CheckResult("spectrum_multiplicities", float(mismatches), 0.0),
            CheckResult("overlap_consistency", overlap_consistency_residual(params), 1e-13),
        )


@functools.lru_cache(maxsize=_INDEX_MEMO_SIZE)
def _memo_graph(params: GraphParams) -> _GraphRecord:
    # The class sizes are the index handle's, which builds no array.  The
    # coefficients come from np.poly's float convolution, exact while every
    # partial coefficient is below 2**53, which basis_bound guarantees
    # wherever the projector basis uses them.
    sd = spectral_data(params)
    gamma = coupling.gamma_star(params)
    h_red = _reduced_matrix(sd, gamma)
    size_array = np.array(_memo_colex_index(params).sizes, dtype=np.int64)
    size_roots = np.sqrt(size_array)
    lambdas = [_eigenvalue(params.n, params.k, l) for l in range(params.k + 1)]
    coefficients = np.array(
        [np.poly(lambdas[:l] + lambdas[l + 1:])[::-1] for l in range(params.k + 1)],
        dtype=np.float64,
    ).T.copy()
    factors = [lambdas[0] + abs(lam) for lam in lambdas]
    for array in (h_red, size_array, size_roots, coefficients):
        array.flags.writeable = False
    return _GraphRecord(
        sd, gamma, 2.0 * run_time(params), _reduced_curve(sd, gamma), h_red, size_array,
        size_roots, coefficients, math.prod(factors) // min(factors),
    )


def _exact_record(params: GraphParams) -> _GraphRecord:
    # The graph's record, refused before any N x N array is built where the
    # projector basis would leave the exact integer range of binary64.
    record = _memo_graph(params)
    if record.basis_bound >= 2**53:
        raise NumericalError("projector basis leaves the exact integer range of binary64")
    return record


def check_spectrum(params: GraphParams, cap: int = DEFAULT_FULL_CAP) -> ValidationReport:
    """Dense adjacency spectrum against the closed-form eigenvalues and
    multiplicities; values within 1e-8, multiplicities exact.

    The one dense eigensolve is values-only (``numpy.linalg.eigvalsh``).
    Its checks depend on (n, k) alone, so they are kept per process for
    the last 8 graphs and shared with :func:`validate_instance`; ``cap``
    is checked on every call, before the kept checks are read."""
    _colex_index(params, cap)  # refuses N above cap
    return ValidationReport(checks=_memo_graph(params).checks[:2])


def _invariance_residual(record, image, label) -> float:
    # image[l] is A|nu_l> for the 0/1 indicators nu_l of the classes
    # label == l, which _distance_labels has checked against the index's
    # class sizes.  Its entries and class sums are exact integers, so row l
    # minus its class-wise means, scaled by 1/sqrt(|class_l|), is exactly 0
    # for equitable classes.  One bincount sums every row over every class:
    # bin l*(k+1) + c collects row l on class c, read from image.T, which is
    # contiguous as _class_image returns it.
    levels = len(image)
    sums = np.bincount(
        (label[:, None] + np.arange(0, levels * levels, levels)).ravel(),
        weights=image.T.ravel(), minlength=levels * levels,
    )
    means = sums.reshape(levels, levels) / record.size_array
    # The 2-norm of each row of the deviation, as numpy.linalg.norm forms it.
    deviation = image - means[:, label]
    deviation *= deviation
    residual = np.sqrt(np.add.reduce(deviation, axis=1))
    residual /= record.size_roots
    return float(residual.max())


def _partition_invariance(index, record, w) -> float:
    label = _distance_labels(index, w)
    return _invariance_residual(record, _class_image(index, label), label)


def check_partition_invariance(
    params: GraphParams, w: int, cap: int = DEFAULT_FULL_CAP
) -> float:
    """Residual of A mapping the distance-class span into itself.

    With B the orthonormal class indicators around w, returns
    max_l || (I - B B^T) A |nu_l> ||.  A|nu_l> is counted exactly in
    integers from the (k-1)-faces of the colex index (A = W^T W - kI), in
    O(N k^2) and without an N x N array, so the residual is exactly 0.0
    when the classes are equitable.
    """
    index = _colex_index(params, cap)
    w = _int(w, "marked vertex w", 0, params.num_vertices - 1)
    return _partition_invariance(index, _memo_graph(params), w)


def _projector_basis(record, a, w) -> np.ndarray:
    # Column l is prod_{j != l} (A - lambda_j)|w>, which is P_l|w> times the
    # nonzero integer prod_{j != l} (lambda_l - lambda_j).  It is K c_l for
    # the Krylov vectors K = [|w>, A|w>, ..., A^k|w>] and the coefficients
    # c_l of prod_{j != l} (x - lambda_j), the record's column l.
    # A and the lambdas are integers, A^i|w> has entries at most lambda_0^i
    # (A's row sums are lambda_0), and sum_i lambda_0^i |c_il| is at most
    # prod_{j != l} f_j, f_j = lambda_0 + |lambda_j|, so every entry,
    # product and partial sum is at most the record's basis_bound in
    # magnitude.  Below 2**53, checked before A is built, they are exact.
    krylov = np.zeros((len(record.coefficients), len(a)))
    krylov[0, w] = 1.0
    krylov[1] = a[w]  # A is symmetric
    for i in range(2, len(krylov)):
        np.matmul(krylov[i - 1], a, out=krylov[i])
    return krylov.T @ record.coefficients


def _embedding_residual(record, a, gamma, h_red, w) -> float:
    # B^T H B - H_red with H = -gamma*A - |w><w| applied to B, whose columns
    # P_l|w> / ||P_l|w>|| carry the sign that makes entry w, p_l^2 before
    # scaling, positive; h_red is the reduced matrix at gamma.  The column
    # norms are formed as numpy.linalg.norm forms them, |w><w| as np.outer.
    basis = _projector_basis(record, a, w)
    basis /= np.copysign(np.sqrt(np.add.reduce(basis * basis, axis=0)), basis[w])
    pinned = basis[w]
    conjugated = -gamma * (basis.T @ (a @ basis))
    conjugated -= pinned[:, None] * pinned
    conjugated -= h_red
    return float(np.abs(conjugated, out=conjugated).max())


def reduced_embedding_residual(
    params: GraphParams, gamma: float, w: int, cap: int = DEFAULT_FULL_CAP
) -> float:
    """Max entrywise difference between B^T H_full B and the reduced matrix,
    B being the orthonormal basis P_l|w>/p_l of the invariant subspace.

    B comes from the exact integer vectors prod_{j != l} (A - lambda_j)|w>
    and H acts through the dense A, so no eigensolve is made; a basis past
    binary64's exact integers raises :class:`NumericalError` before any
    array of size N, the colex index's included."""
    gamma = _check_coupling(params, gamma)
    w = _int(w, "marked vertex w", 0, params.num_vertices - 1)
    index = _colex_index(params, cap)
    record = _exact_record(params)
    h_red = _reduced_matrix(record.sd, gamma)
    return _embedding_residual(record, _adjacency(index), gamma, h_red, w)


def overlap_consistency_residual(params: GraphParams) -> float:
    """Worst relative disagreement between the two routes to p_l^2."""
    worst = 0.0
    for ell in range(params.k + 1):
        via_mult = multiplicity(params, ell) / params.num_vertices
        via_fact = overlap_sq_factorial(params, ell)
        worst = max(worst, abs(via_mult - via_fact) / via_fact)
    return worst


def validate_instance(
    params: GraphParams, w: int = 0, cap: int = DEFAULT_FULL_CAP
) -> ValidationReport:
    """Every full-space check on one instance, aggregated for reporting.

    What depends on (n, k) alone is computed once per graph and kept per
    process for the last 8 graphs in one record (immutable, arrays
    read-only): the closed-form spectrum, gamma*, t_max = 2*run_time, the
    reduced model's curve, the reduced matrix at gamma*, the distance-class
    sizes, the projector basis's polynomial coefficients and exactness
    bound, and the spectrum and overlap checks, whose values-only
    ``eigvalsh`` is the one dense eigensolve.  The cap and the mark are
    checked first on every call, then the bound: a graph past it raises
    :class:`NumericalError` before any array of size N is built, the
    colex index's included.  One N x N
    array is held at a time.  Each call pays for the mark's own work, in a
    number of numpy calls fixed by k: its distance labels and class image for
    partition invariance, A, its projector basis for the embedding residual
    (k-1 products of A with a vector), and the Lanczos runs of w and w2 =
    w + 1 mod N; a run that does not close within k+1 steps raises
    :class:`NumericalError`.
    oracle_equivalence (w against the reduced model) and
    vertex_independence (w against w2) bound the curves' distance over all
    of [0, t_max]; see :func:`compare_full_reduced`.
    """
    index = _colex_index(params, cap)
    w = _int(w, "marked vertex w", 0, params.num_vertices - 1)
    record = _exact_record(params)
    invariance = _partition_invariance(index, record, w)
    checks = record.checks  # before A, so one N x N array is live at a time
    a = _adjacency(index)
    embedding = _embedding_residual(record, a, record.gamma, record.h_red, w)
    w2 = (w + 1) % params.num_vertices
    full_w, full_w2 = _lanczos(a, record.gamma, (w, w2), params)
    oracle = _sup_distance(full_w, record.reduced, record.t_max)
    checks += (
        CheckResult("partition_invariance", invariance, 1e-12),
        CheckResult("reduced_embedding", embedding, 1e-10),
        CheckResult("oracle_equivalence", oracle, 1e-9),
        CheckResult("vertex_independence", _sup_distance(full_w, full_w2, record.t_max), 1e-10),
    )
    return ValidationReport(checks=checks)
