import importlib
import pathlib
import re

import numpy as np
import pytest

import qwsearch as qw
from qwsearch.errors import DomainError

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


def test_public_surface_is_pinned():
    # Any name added to or dropped from the package surface shows up here.
    assert len(PUBLIC_NAMES) == 39
    assert sorted(qw.__all__) == PUBLIC_NAMES
    for name in qw.__all__:
        assert getattr(qw, name) is not None


SRC = pathlib.Path(qw.__file__).parent
README = SRC.parent.parent / "README.md"
MODULES = ("johnson", "spectral", "coupling", "dynamics", "validation", "cli", "errors")


def _resolves(module, dotted: str) -> bool:
    for root in (module, qw):
        obj = root
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_docs_name_only_what_exists():
    # Every :func:/:class: role in the package and every backticked
    # module.name in the README resolves to a live object.
    missing = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"qwsearch.{path.stem}".removesuffix(".__init__"))
        for name in re.findall(r":(?:func|class):`([^`]+)`", path.read_text()):
            if not _resolves(module, name):
                missing.append(f"{path.name}: {name}")
    qualified = re.compile(rf"(?<![\w.])({'|'.join(MODULES)})\.([A-Za-z_]\w*)")
    for span in re.findall(r"`([^`\n]+)`", README.read_text()):
        for mod, name in qualified.findall(span):
            if not hasattr(importlib.import_module(f"qwsearch.{mod}"), name):
                missing.append(f"README.md: {mod}.{name}")
    assert missing == []


_P = qw.GraphParams(6, 3)
_G = qw.gamma_star(_P)
_T = [0.0, 1.0]
# Each takes one integer x: a marked vertex, a level, a sample count or k.
INTEGER_ARGUMENTS = {
    "full_hamiltonian": lambda x: qw.full_hamiltonian(_P, _G, x),
    "distance_partition": lambda x: qw.distance_partition(_P, x),
    "check_partition_invariance": lambda x: qw.check_partition_invariance(_P, x),
    "validate_instance": lambda x: qw.validate_instance(_P, x),
    "reduced_embedding_residual": lambda x: qw.validation.reduced_embedding_residual(_P, _G, x),
    "compare_full_reduced": lambda x: qw.compare_full_reduced(_P, _G, x, _T),
    "compare_marked_vertices-w1": lambda x: qw.compare_marked_vertices(_P, _G, x, 1, _T),
    "compare_marked_vertices-w2": lambda x: qw.compare_marked_vertices(_P, _G, 1, x, _T),
    "eigenvalue": lambda x: qw.eigenvalue(_P, x),
    "multiplicity": lambda x: qw.multiplicity(_P, x),
    "overlap": lambda x: qw.overlap(_P, x),
    "overlap_sq_factorial": lambda x: qw.overlap_sq_factorial(_P, x),
    "scan-m": lambda x: qw.scan(_P, _G, 0.0, 1.0, x),
    "scan-m-above-2": lambda x: qw.scan(_P, _G, 0.0, 1.0, x + 100.0),
    "GraphParams-k": lambda x: qw.GraphParams(4, x),
    "ScaledParams-k": lambda x: qw.ScaledParams(0.1, x),
}


@pytest.mark.parametrize("value", [True, np.True_, 1.5, np.float64(1.0)], ids=repr)
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_arguments_refuse_bools_and_floats(call, value):
    # numpy reads True as a mask and 1.5 fails inside numpy; both are
    # refused as input.
    with pytest.raises(DomainError, match="integer"):
        call(value)


def test_integer_arguments_accept_numpy_integers():
    # Marks, levels and sample counts may be numpy integers; GraphParams
    # and ScaledParams take Python integers only.
    for name, call in INTEGER_ARGUMENTS.items():
        if name in ("scan-m-above-2", "GraphParams-k", "ScaledParams-k"):
            continue
        x = 101 if name == "scan-m" else 1
        plain = [getattr(r, "__dict__", r) for r in (call(np.int64(x)), call(x))]
        np.testing.assert_equal(*plain, err_msg=name)
