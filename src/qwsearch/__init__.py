"""Spatial search by continuous-time quantum walk on Johnson graphs J(n,k).

The search Hamiltonian H = -gamma*A - |w><w| preserves the span of the
distance classes around the marked vertex w, so the whole problem lives in
an exact (k+1)-dimensional model.  This package builds both pictures: the
dense full-space one as a verification oracle for small instances, and the
reduced one for simulation and asymptotics at any n, together with the
critical hopping rate gamma_star and the run time pi*n^(k/2)/(2*sqrt(k!)).

``import qwsearch`` imports none of its modules: each public name and each
submodule is imported on first access.  The exact layer (:mod:`qwsearch.domain`,
:mod:`qwsearch.spectral`, :mod:`qwsearch.coupling`) and the reduced model
(:mod:`qwsearch.reduced`: its secular solve, the success curve, the peak
search and the sweep rows) need only the standard library, so
gamma_star, success_probability, find_peak and convergence_sweep never
load numpy; the full space, the time-grid scan and the oracle do.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_HOMES = {
    "coupling": ("ScaledParams", "from_graph", "gamma_closed_form", "gamma_star"),
    "domain": ("DEFAULT_FULL_CAP", "GraphParams"),
    "dynamics": ("ScanResult", "scan", "sym_eig"),
    "errors": (
        "BracketError", "CapacityError", "DomainError", "NumericalError",
        "UnsupportedParameterError",
    ),
    "johnson": ("DistancePartition", "adjacency_matrix", "distance_partition", "full_hamiltonian"),
    "reduced": (
        "SweepRow", "asymptotics_row", "convergence_sweep", "find_peak", "run_time",
        "success_probability",
    ),
    "spectral": (
        "SpectralData", "eigenvalue", "multiplicity", "overlap", "overlap_sq_factorial",
        "reduced_hamiltonian", "spectral_data",
    ),
    "validation": (
        "ValidationReport", "check_partition_invariance", "check_spectrum",
        "compare_full_reduced", "compare_marked_vertices", "validate_instance",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name):
    # A submodule, or a public name read from its module on every access and
    # never stored here, so a function patched in its module is the one that
    # qwsearch.<name> gives too.
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | _HOME.keys())
