import qwsearch as qw

PUBLIC_NAMES = [
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
    "eta_star",
    "find_peak",
    "from_graph",
    "full_hamiltonian",
    "gamma_closed_form",
    "gamma_star",
    "gamma_star_scaled",
    "multiplicity",
    "overlap",
    "overlap_sq_factorial",
    "p_ell_scaled",
    "r_ell",
    "reduced_eig",
    "reduced_hamiltonian",
    "run_time",
    "scan",
    "spectral_data",
    "success_probability",
    "sym_eig",
    "validate_instance",
]


def test_public_surface_is_pinned():
    # Any name added to or dropped from the package surface shows up here.
    assert len(PUBLIC_NAMES) == 44
    assert sorted(qw.__all__) == PUBLIC_NAMES
    for name in qw.__all__:
        assert getattr(qw, name) is not None
