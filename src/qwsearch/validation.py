"""Checks tying the reduced model to the full Hilbert space and to the
asymptotic predictions.

Small instances get exact oracles: the dense adjacency spectrum against
the closed forms, invariance of the distance-class span under A, the
embedding of the reduced Hamiltonian inside the full one, and the
full-space success-probability curve against the reduced-model curve.

Large instances are covered through the reduced model alone, where the
perturbation analysis shows up as measurable spectral facts at the
critical coupling: the gap between the two lowest levels approaches
2*sqrt(k!)*n^(-k/2) (so gap * run_time -> pi), the ground state splits
evenly between the start state e_0 and the marked state p, and the
success probability at run_time tends to 1.  Convergence sweeps record
exactly those quantities per n.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import coupling
from .dynamics import (
    _peak,
    _probs_at,
    _reduced_transition,
    peak_bracket,
    run_time,
    sym_eig,
)
from .errors import DomainError, NumericalError
from .johnson import (
    DEFAULT_FULL_CAP,
    GraphParams,
    _adjacency,
    _check_coupling,
    _check_vertex,
    _class_image,
    _colex_index,
    _distance_labels,
    _move_mark,
    _search_hamiltonian,
    adjacency_matrix,
    full_hamiltonian,
)
from .spectral import (
    _reduced_matrix,
    multiplicity,
    overlap_sq_factorial,
    spectral_data,
)

# Dense eigenvalues are assigned to closed-form levels within this distance;
# the closed-form levels are integers at least 1 apart, a 1e6 safety margin.
_CLUSTER_TOL = 1e-6


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
    label: str
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _full_curve(h, w, times):
    # Success curve of the uniform start state under a dense search Hamiltonian.
    dec = sym_eig(h)
    n_vert = h.shape[0]
    start = np.full(n_vert, 1.0 / math.sqrt(n_vert))
    weights = dec.vectors[w, :] * (dec.vectors.T @ start)
    return _probs_at(dec, weights, times)


def _reduced_curve(params, gamma, times, sd=None):
    dec, weights = _reduced_transition(params, gamma, sd)
    return _probs_at(dec, weights, times)


def _curve_distance(probs1, probs2) -> float:
    return float(np.max(np.abs(probs1 - probs2)))


def compare_full_reduced(
    params: GraphParams,
    gamma: float,
    w: int,
    times,
    cap: int = DEFAULT_FULL_CAP,
) -> float:
    """Max |p_full(t) - p_reduced(t)| over the time grid.

    The full curve evolves |s> under the dense N x N Hamiltonian and
    projects on the marked basis vector; the reduced curve comes from the
    (k+1)-dimensional model.  Their agreement is the core oracle for
    everything the reduced model is used for.
    """
    times = np.asarray(times, dtype=np.float64)
    probs_full = _full_curve(full_hamiltonian(params, gamma, w, cap), w, times)
    return _curve_distance(probs_full, _reduced_curve(params, gamma, times))


def compare_marked_vertices(
    params: GraphParams,
    gamma: float,
    w1: int,
    w2: int,
    times,
    cap: int = DEFAULT_FULL_CAP,
) -> float:
    """Max difference between full-space success curves for two marked vertices.

    Vertex-transitivity makes the marked choice immaterial; this measures
    exactly that.  One N x N Hamiltonian serves both curves: the mark is
    moved from w1 to w2 in place.
    """
    _check_vertex(w2, params.num_vertices)
    times = np.asarray(times, dtype=np.float64)
    h = full_hamiltonian(params, gamma, w1, cap)
    probs_w1 = _full_curve(h, w1, times)
    return _curve_distance(probs_w1, _full_curve(_move_mark(h, w1, w2), w2, times))


def _spectrum_report(params, sd, dense_values) -> ValidationReport:
    spacings = -np.diff(sd.lambdas)
    if np.min(spacings) <= 2 * _CLUSTER_TOL:  # pragma: no cover - needs n < 2k
        raise NumericalError("closed-form eigenvalues too close to cluster safely")
    dense = np.sort(dense_values)
    expanded = np.concatenate(
        [np.full(m, lam) for lam, m in zip(sd.lambdas[::-1], sd.mults[::-1])]
    )
    value_residual = float(np.max(np.abs(dense - expanded)))
    mismatches = 0
    for lam, m in zip(sd.lambdas, sd.mults):
        count = int(np.sum(np.abs(dense - lam) <= _CLUSTER_TOL))
        if count != m:
            mismatches += 1
    return ValidationReport(
        label=f"J({params.n},{params.k}) spectrum",
        checks=(
            CheckResult("spectrum_values", value_residual, 1e-8),
            CheckResult("spectrum_multiplicities", float(mismatches), 0.0),
        ),
    )


def check_spectrum(params: GraphParams, cap: int = DEFAULT_FULL_CAP) -> ValidationReport:
    """Dense adjacency spectrum against the closed-form eigenvalues and
    multiplicities; values within 1e-8, multiplicities exact."""
    dense = sym_eig(adjacency_matrix(params, cap)).values
    return _spectrum_report(params, spectral_data(params), dense)


def _invariance_residual(image, label) -> float:
    # image[l] is A|nu_l> for the 0/1 indicators nu_l of the classes
    # label == l.  Its entries and class sums are exact integers, so row l
    # minus its class-wise means, scaled by 1/sqrt(|class_l|), is exactly 0
    # for equitable classes.
    sizes = np.bincount(label)
    means = np.array([np.bincount(label, weights=row) for row in image]) / sizes
    residual = np.linalg.norm(image - means[:, label], axis=1) / np.sqrt(sizes)
    return float(np.max(residual))


def _partition_invariance(index, w) -> float:
    label = _distance_labels(index, w)
    return _invariance_residual(_class_image(index, label), label)


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
    return _partition_invariance(_colex_index(params, cap), w)


def _embedding_residual(sd, dec_a, h, gamma, w) -> float:
    # Columns P_l|w> / ||P_l|w>|| computed from the dense adjacency
    # eigendecomposition by clustering eigenvalues to closed-form levels.
    basis = np.zeros((h.shape[0], len(sd.lambdas)))
    for ell, lam in enumerate(sd.lambdas):
        sel = np.abs(dec_a.values - lam) <= _CLUSTER_TOL
        vecs = dec_a.vectors[:, sel]
        proj_w = vecs @ vecs[w, :]
        basis[:, ell] = proj_w / np.linalg.norm(proj_w)
    conjugated = basis.T @ h @ basis
    return float(np.max(np.abs(conjugated - _reduced_matrix(sd, gamma))))


def reduced_embedding_residual(
    params: GraphParams, gamma: float, w: int, cap: int = DEFAULT_FULL_CAP
) -> float:
    """Max entrywise difference between B^T H_full B and the reduced matrix,
    B being the orthonormal basis P_l|w>/p_l of the invariant subspace."""
    _check_coupling(params, gamma)
    _check_vertex(w, params.num_vertices)
    a = adjacency_matrix(params, cap)
    dec_a = sym_eig(a)
    h = _search_hamiltonian(a, gamma, w)
    return _embedding_residual(spectral_data(params), dec_a, h, gamma, w)


def overlap_consistency_residual(params: GraphParams) -> float:
    """Worst relative disagreement between the two routes to p_l^2."""
    worst = 0.0
    for ell in range(params.k + 1):
        via_mult = multiplicity(params, ell) / params.num_vertices
        via_fact = overlap_sq_factorial(params, ell)
        worst = max(worst, abs(via_mult - via_fact) / via_fact)
    return worst


def asymptotics_row(params: GraphParams) -> SweepRow:
    """All convergence-study quantities of one instance at the critical coupling.

    The reduced model is solved once; the success probability at run_time
    and the peak search (as :func:`success_probability` and
    :func:`find_peak` compute them) share that solve.
    """
    gamma = coupling.gamma_star(params)
    sd = spectral_data(params)
    dec, weights = _reduced_transition(params, gamma, sd)
    gap = float(dec.values[1] - dec.values[0])
    if gap < 1e-14:
        raise NumericalError(
            f"two lowest levels numerically degenerate (gap {gap:.3e}); "
            f"n too large for k={params.k} in binary64"
        )
    t_run = run_time(params)
    scale = float(params.n) ** (params.k / 2) / (2.0 * math.sqrt(math.factorial(params.k)))
    ground = dec.vectors[:, 0]
    t_peak, p_peak = _peak(dec, weights, *peak_bracket(params))
    return SweepRow(
        n=params.n,
        N=params.num_vertices,
        gamma_star=gamma,
        t_run=t_run,
        p_at_trun=float(_probs_at(dec, weights, np.array([t_run]))[0]),
        t_peak=t_peak,
        p_peak=p_peak,
        gap=gap,
        gap_ratio=gap * scale,
        phase=gap * t_run,
        s_overlap_sq=float(ground[0] ** 2),
        w_overlap_sq=float(np.dot(sd.overlaps, ground) ** 2),
    )


def convergence_sweep(k: int, n_list, jobs: int = 1) -> list:
    """One :func:`asymptotics_row` per n, at the critical coupling throughout.

    Rows are computed one after another in input order.  ``jobs`` must be
    at least 1 and is otherwise ignored: a row costs well under a
    millisecond, and a thread pool was slower at every measured size.
    """
    if not jobs >= 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    n_list = list(n_list)
    if not n_list:
        raise DomainError("n_list must not be empty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError(f"n_list must be strictly ascending, got {n_list}")
    return [asymptotics_row(GraphParams(n=n, k=k)) for n in n_list]


def validate_instance(
    params: GraphParams, w: int = 0, cap: int = DEFAULT_FULL_CAP
) -> ValidationReport:
    """Every full-space check on one instance, aggregated for reporting.

    The adjacency A and the spectral data are built once, and A, H_w and
    H_w2 (w2 = w + 1 mod N, for vertex independence) are each
    eigendecomposed once; the checks share them.  The colex index comes
    from the per-process memo (bounded, read-only, checked against ``cap``
    on every call), so repeated calls on one (n, k) build it once, and its
    clique edges are built on the first dense adjacency.  Partition
    invariance is counted from the index's faces before A exists.  The
    checks on A come next, then H_w is formed in A's buffer and H_w2 from
    H_w by moving the mark, so one N x N matrix besides the eigenvectors is
    held during each eigensolve.
    """
    index = _colex_index(params, cap)
    invariance = _partition_invariance(index, w)
    a = _adjacency(index)
    sd = spectral_data(params)
    gamma = coupling.gamma_star(params)
    times = np.linspace(0.0, 2.0 * run_time(params), 64)
    dec_a = sym_eig(a)
    spectrum = _spectrum_report(params, sd, dec_a.values).checks
    h = _search_hamiltonian(a, gamma, w)
    embedding = _embedding_residual(sd, dec_a, h, gamma, w)
    del dec_a
    probs_w = _full_curve(h, w, times)
    w2 = (w + 1) % params.num_vertices
    probs_w2 = _full_curve(_move_mark(h, w, w2), w2, times)
    checks = spectrum + (
        CheckResult(
            "overlap_consistency", overlap_consistency_residual(params), 1e-13
        ),
        CheckResult("partition_invariance", invariance, 1e-12),
        CheckResult("reduced_embedding", embedding, 1e-10),
        CheckResult(
            "oracle_equivalence",
            _curve_distance(probs_w, _reduced_curve(params, gamma, times, sd)),
            1e-9,
        ),
        CheckResult("vertex_independence", _curve_distance(probs_w, probs_w2), 1e-10),
    )
    return ValidationReport(label=f"J({params.n},{params.k})", checks=checks)
