import dataclasses
import importlib
import math
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
    "GraphParams",
    "NumericalError",
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
    assert len(PUBLIC_NAMES) == 37
    assert sorted(qw.__all__) == PUBLIC_NAMES
    for name in qw.__all__:
        assert getattr(qw, name) is not None


def test_results_carry_only_what_their_readers_read():
    # No result echoes an input its caller already holds: the graph, the
    # coupling, the mark or a label.
    assert [f.name for f in dataclasses.fields(qw.ScanResult)] == ["times", "probs"]
    assert [f.name for f in dataclasses.fields(qw.DistancePartition)] == ["classes"]
    assert [f.name for f in dataclasses.fields(qw.ValidationReport)] == ["checks"]
    for k in (1, 3, 8):
        params = qw.GraphParams(2 * k + 3, k)
        matrix = qw.reduced_hamiltonian(params, 0.25)
        assert isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
        assert matrix.shape == (k + 1, k + 1)
        # One offset per root from its pole, not a (k+1) x (k+1) table.
        offsets = qw.reduced._solve(qw.spectral_data(params), 0.25)[3]
        assert len(offsets) == k + 1 and all(type(x) is float for x in offsets)


SRC = pathlib.Path(qw.__file__).parent
README = SRC.parent.parent / "README.md"
MODULES = (
    "domain", "johnson", "spectral", "coupling", "reduced", "dynamics", "validation", "cli",
    "errors",
)


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
_T = 1.0
_CAP = 20  # N of J(6,3)
# Each takes one integer x: a marked vertex, a level, a sample count, n or
# k, an n of a sweep, the sweep's jobs or the full-space cap.
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
    "GraphParams-n": lambda x: qw.GraphParams(x, 1),
    "GraphParams-k": lambda x: qw.GraphParams(4, x),
    "ScaledParams-k": lambda x: qw.ScaledParams(0.1, x),
    "convergence_sweep-n_list": lambda x: qw.convergence_sweep(1, [x]),
    "convergence_sweep-jobs": lambda x: qw.convergence_sweep(1, [4], jobs=x),
    "vertex_elements-cap": lambda x: qw.johnson.vertex_elements(_P, x),
    "adjacency_matrix-cap": lambda x: qw.adjacency_matrix(_P, x),
    "distance_partition-cap": lambda x: qw.distance_partition(_P, 0, x),
    "full_hamiltonian-cap": lambda x: qw.full_hamiltonian(_P, _G, 0, x),
    "check_spectrum-cap": lambda x: qw.check_spectrum(_P, x),
    "check_partition_invariance-cap": lambda x: qw.check_partition_invariance(_P, 0, x),
    "validate_instance-cap": lambda x: qw.validate_instance(_P, 0, x),
    "reduced_embedding_residual-cap": lambda x: qw.validation.reduced_embedding_residual(
        _P, _G, 0, x
    ),
    "compare_full_reduced-cap": lambda x: qw.compare_full_reduced(_P, _G, 0, _T, x),
    "compare_marked_vertices-cap": lambda x: qw.compare_marked_vertices(_P, _G, 0, 1, _T, x),
}
# The accepted value each call is tried with, where it is not 1.
_INTEGER_VALUES = {"scan-m": 101, "GraphParams-n": 2, "convergence_sweep-n_list": 4} | {
    name: _CAP for name in INTEGER_ARGUMENTS if name.endswith("-cap")
}


@pytest.mark.parametrize("value", [True, np.True_, 1.5, np.float64(1.0)], ids=repr)
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_arguments_refuse_bools_and_floats(call, value):
    # numpy reads True as a mask and 1.5 fails inside numpy; both are
    # refused as input.
    with pytest.raises(DomainError, match="integer"):
        call(value)


@pytest.mark.parametrize("value", [20.5, 1e9, "a", None], ids=repr)
@pytest.mark.parametrize("name", [name for name in INTEGER_ARGUMENTS if name.endswith("-cap")])
def test_caps_refuse_what_is_not_an_integer(name, value):
    # A float cap would be compared as a float, and "a" or None would fail
    # the comparison with a TypeError.
    with pytest.raises(DomainError, match="cap must be an integer"):
        INTEGER_ARGUMENTS[name](value)


def test_integer_arguments_accept_numpy_integers():
    # Every integer argument may be a numpy integer, read as its value.
    for name, call in INTEGER_ARGUMENTS.items():
        if name == "scan-m-above-2":
            continue
        x = _INTEGER_VALUES.get(name, 1)
        plain = [getattr(r, "__dict__", r) for r in (call(np.int64(x)), call(x))]
        np.testing.assert_equal(*plain, err_msg=name)
    # n and k are kept as Python ints, so no arithmetic on them can wrap.
    params = qw.GraphParams(np.int64(6), np.int32(3))
    assert (type(params.n), type(params.k)) == (int, int) and params == _P


def test_narrow_numpy_marks_pair_with_their_neighbour():
    # The pair mark w + 1 mod N is formed in Python integers: an int8 mark
    # of J(10,4), N = 210, whose N does not fit int8, is read as its value.
    params = qw.GraphParams(10, 4)
    gamma, t_max = qw.gamma_star(params), 2 * qw.run_time(params)
    for call in (
        lambda x: qw.validate_instance(params, x).checks,
        lambda x: qw.compare_full_reduced(params, gamma, x, t_max),
    ):
        assert call(np.int8(5)) == call(5)


_T_RUN = qw.run_time(_P)
# Each takes one real x, named after the dash, and is tried with an integer
# i and a float f that float32 holds exactly.
REAL_ARGUMENTS = {
    "success_probability-gamma": (lambda x: qw.success_probability(_P, x, _T), 1, 0.125),
    "success_probability-t": (lambda x: qw.success_probability(_P, _G, x), 1, 0.5),
    "scan-gamma": (lambda x: qw.scan(_P, x, 0.0, 1.0, 11), 1, 0.125),
    "scan-t0": (lambda x: qw.scan(_P, _G, x, 4.0, 11), 1, 0.5),
    "scan-t1": (lambda x: qw.scan(_P, _G, 0.0, x, 11), 2, 2.5),
    "find_peak-gamma": (lambda x: qw.find_peak(_P, x, (0.0, 2 * _T_RUN)), 1, 0.125),
    "find_peak-t0": (lambda x: qw.find_peak(_P, _G, (x, 2 * _T_RUN)), 1, 0.5),
    "find_peak-t1": (lambda x: qw.find_peak(_P, _G, (0.0, x)), 16, 16.5),
    "full_hamiltonian-gamma": (lambda x: qw.full_hamiltonian(_P, x, 0), 1, 0.125),
    "reduced_hamiltonian-gamma": (lambda x: qw.reduced_hamiltonian(_P, x), 1, 0.125),
    "reduced_embedding_residual-gamma": (
        lambda x: qw.validation.reduced_embedding_residual(_P, x, 0), 1, 0.125
    ),
    "compare_full_reduced-gamma": (lambda x: qw.compare_full_reduced(_P, x, 0, _T), 1, 0.125),
    "compare_full_reduced-t_max": (lambda x: qw.compare_full_reduced(_P, _G, 0, x), 1, 0.5),
    "compare_marked_vertices-gamma": (
        lambda x: qw.compare_marked_vertices(_P, x, 0, 1, _T), 1, 0.125
    ),
    "compare_marked_vertices-t_max": (
        lambda x: qw.compare_marked_vertices(_P, _G, 0, 1, x), 1, 0.5
    ),
    "ScaledParams-eps": (lambda x: qw.ScaledParams(x, 1), 0, 0.25),
}
_NOT_REAL = [
    True, np.True_, 1 + 0j, np.complex128(1), "1.0", None, [1.0], np.array([1.0, 2.0]),
    math.nan, math.inf,
]


@pytest.mark.parametrize("value", _NOT_REAL, ids=repr)
@pytest.mark.parametrize("name", REAL_ARGUMENTS)
def test_real_arguments_refuse_what_is_not_a_finite_real(name, value):
    # One check decides: a bool, a complex (numpy would drop its imaginary
    # part with only a warning), a string, None, a sequence, an array, NaN
    # and inf are each a DomainError naming the argument.
    argument = name.split("-")[-1]
    with pytest.raises(DomainError, match=f"^{argument} must be a finite real"):
        REAL_ARGUMENTS[name][0](value)


def _outcome(call, x):
    try:
        result = call(x)
    except DomainError as exc:
        return type(exc), str(exc)
    return getattr(result, "__dict__", result)


@pytest.mark.parametrize("name", REAL_ARGUMENTS)
def test_real_arguments_read_numpy_scalars_as_floats(name):
    # An int, np.int64, np.float32 or np.float64 x gives what float(x)
    # gives, bit for bit: the check hands every caller a Python float.
    # (No integer eps is valid, so ScaledParams-eps compares its refusals.)
    call, i, f = REAL_ARGUMENTS[name]
    for x in (i, np.int64(i), np.float32(f), np.float64(f)):
        np.testing.assert_equal(_outcome(call, x), _outcome(call, float(x)), err_msg=repr(x))


@pytest.mark.parametrize("bracket", [1.0, None, [1.0], (0.0, 1.0, 2.0), np.array([1.0])], ids=repr)
def test_find_peak_refuses_a_bracket_that_is_not_a_pair(bracket):
    with pytest.raises(DomainError, match="pair"):
        qw.find_peak(_P, _G, bracket)
