"""Spatial search by continuous-time quantum walk on Johnson graphs J(n,k).

The search Hamiltonian H = -gamma*A - |w><w| preserves the span of the
distance classes around the marked vertex w, so the whole problem lives in
an exact (k+1)-dimensional model.  This package builds both pictures: the
dense full-space one as a verification oracle for small instances, and the
reduced one for simulation and asymptotics at any n, together with the
critical hopping rate gamma_star and the run time pi*n^(k/2)/(2*sqrt(k!)).
"""

from .coupling import (
    ScaledParams,
    from_graph,
    gamma_closed_form,
    gamma_star,
)
from .dynamics import (
    EigDecomp,
    ScanResult,
    find_peak,
    run_time,
    scan,
    success_probability,
    sym_eig,
)
from .errors import (
    BracketError,
    CapacityError,
    DomainError,
    NumericalError,
    UnsupportedParameterError,
)
from .johnson import (
    DEFAULT_FULL_CAP,
    DistancePartition,
    GraphParams,
    adjacency_matrix,
    distance_partition,
    full_hamiltonian,
)
from .spectral import (
    ReducedHamiltonian,
    SpectralData,
    eigenvalue,
    multiplicity,
    overlap,
    overlap_sq_factorial,
    reduced_hamiltonian,
    spectral_data,
)
from .validation import (
    SweepRow,
    ValidationReport,
    asymptotics_row,
    check_partition_invariance,
    check_spectrum,
    compare_full_reduced,
    compare_marked_vertices,
    convergence_sweep,
    validate_instance,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CapacityError",
    "DEFAULT_FULL_CAP",
    "DistancePartition",
    "DomainError",
    "EigDecomp",
    "GraphParams",
    "NumericalError",
    "ReducedHamiltonian",
    "ScaledParams",
    "ScanResult",
    "SpectralData",
    "SweepRow",
    "UnsupportedParameterError",
    "ValidationReport",
    "adjacency_matrix",
    "asymptotics_row",
    "check_partition_invariance",
    "check_spectrum",
    "compare_full_reduced",
    "compare_marked_vertices",
    "convergence_sweep",
    "distance_partition",
    "eigenvalue",
    "find_peak",
    "from_graph",
    "full_hamiltonian",
    "gamma_closed_form",
    "gamma_star",
    "multiplicity",
    "overlap",
    "overlap_sq_factorial",
    "reduced_hamiltonian",
    "run_time",
    "scan",
    "spectral_data",
    "success_probability",
    "sym_eig",
    "validate_instance",
]
