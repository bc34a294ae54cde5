"""The exact layer and the reduced model need only the standard library.

``spectrum``, ``gamma``, ``simulate``, ``sweep`` and ``--help`` must give
the same bytes with numpy blocked as without, ``import qwsearch`` must not load numpy, and the
argument checks must still know numpy scalars when numpy is imported only
after qwsearch.  Each case runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

import qwsearch as qw

SRC = os.path.dirname(os.path.dirname(qw.__file__))

# Runs ``python -m qwsearch ARGS`` in a child, with numpy blocked first when
# the child's first argument is "block": an import of numpy then raises
# ImportError.
_RUN_MAIN = """
import runpy, sys
block, args = sys.argv[1] == "block", sys.argv[2:]
if block:
    sys.modules["numpy"] = None
sys.argv = ["qwsearch", *args]
try:
    runpy.run_module("qwsearch", run_name="__main__", alter_sys=True)
finally:
    assert not block or sys.modules["numpy"] is None
"""


def _python(code: str, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, env=env, timeout=120
    )


# argv and its exit code.
EXACT_COMMANDS = {
    "spectrum-csv": (["spectrum", "--n", "9", "--k", "4"], 0),
    "spectrum-json": (["spectrum", "--n", "1000", "--k", "6", "--format", "json"], 0),
    "gamma-csv": (["gamma", "--n", "9", "--k", "4"], 0),
    "gamma-json": (["gamma", "--n", "1000", "--k", "4", "--format", "json"], 0),
    "gamma-no-closed-form": (["gamma", "--n", "330", "--k", "165", "--format", "json"], 0),
    "help": (["--help"], 0),
    "spectrum-help": (["spectrum", "--help"], 0),
    "spectrum-refused": (["spectrum", "--n", "3", "--k", "2"], 2),
    "gamma-refused": (["gamma", "--n", "10", "--k", "0"], 2),
    "simulate-csv": (["simulate", "--n", "9", "--k", "4"], 0),
    "simulate-json": (["simulate", "--n", "1000", "--k", "3", "--format", "json"], 0),
    "simulate-gamma-t": (["simulate", "--n", "100", "--k", "3", "--gamma", "0.01", "--t", "50"], 0),
    "sweep": (["sweep", "--k", "3", "--n-list", "100,1000"], 0),
    "sweep-refused": (["sweep", "--k", "3", "--n-list", "5"], 2),
}


@pytest.mark.parametrize("argv,code", EXACT_COMMANDS.values(), ids=EXACT_COMMANDS.keys())
def test_exact_commands_give_the_same_bytes_without_numpy(argv, code):
    free = _python(_RUN_MAIN, "block", *argv)
    loaded = _python(_RUN_MAIN, "load", *argv)
    assert (free.returncode, free.stdout, free.stderr) == (
        loaded.returncode, loaded.stdout, loaded.stderr
    )
    assert free.returncode == code
    assert free.stderr.startswith(b"error: ") if code else free.stderr == b""


# Every command of tests/exact_commands.txt in one child with numpy blocked;
# the child prints the file back: each "$ qwsearch" line, then the report.
_RUN_CHECKED_IN = """
import sys
sys.modules["numpy"] = None
from qwsearch import cli
with open(sys.argv[1], encoding="utf-8") as fh:
    commands = [line for line in fh if line.startswith("$ ")]
for line in commands:
    sys.stdout.write(line)
    assert cli.main(line.split()[2:]) == 0
assert sys.modules["numpy"] is None
"""


def test_checked_in_commands_print_their_bytes_without_numpy():
    path = os.path.join(os.path.dirname(__file__), "exact_commands.txt")
    out = _python(_RUN_CHECKED_IN, path)
    assert out.returncode == 0, out.stderr.decode()
    with open(path, "rb") as fh:
        assert out.stdout == fh.read()


def test_a_numerical_command_fails_under_the_block():
    # The block is real: scan needs numpy and cannot run without it.
    free = _python(_RUN_MAIN, "block", "scan", "--n", "9", "--k", "4")
    assert free.returncode == 1 and b"import of numpy halted" in free.stderr


_IMPORT_ALONE = """
import json, sys
import qwsearch as qw
loaded = "numpy" in sys.modules
sys.modules["numpy"] = None
exact = {
    "lambdas": qw.spectral_data(qw.GraphParams(9, 4)).lambdas,
    "gamma": qw.gamma_star(qw.GraphParams(9, 4)),
    "closed": qw.gamma_closed_form(qw.from_graph(qw.GraphParams(9, 4))),
    "cap": qw.DEFAULT_FULL_CAP,
}
del sys.modules["numpy"]
names = {name: getattr(qw, name) is not None for name in qw.__all__}
modules = {
    name: getattr(qw, name).__name__
    for name in ("cli", "coupling", "domain", "dynamics", "errors", "johnson", "reduced",
                 "spectral", "validation")
}
print(json.dumps({"loaded": loaded, "exact": exact, "names": names, "modules": modules,
                  "dir": dir(qw), "all": qw.__all__}))
"""


def test_import_alone_loads_no_numpy_and_every_name_resolves():
    out = _python(_IMPORT_ALONE)
    assert out.returncode == 0, out.stderr.decode()
    seen = json.loads(out.stdout)
    assert seen["loaded"] is False
    params = qw.GraphParams(9, 4)
    assert seen["exact"] == {
        "lambdas": list(qw.spectral_data(params).lambdas),
        "gamma": qw.gamma_star(params),
        "closed": qw.gamma_closed_form(qw.from_graph(params)),
        "cap": 3003,
    }
    assert len(seen["all"]) == 37 and all(seen["names"].values())
    assert sorted(seen["names"]) == sorted(qw.__all__)
    assert all(module == f"qwsearch.{name}" for name, module in seen["modules"].items())
    assert set(seen["all"]) | set(seen["modules"]) <= set(seen["dir"])
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        qw.nonexistent  # noqa: B018


_LATE_NUMPY = """
import sys
import qwsearch as qw
from qwsearch.errors import DomainError

p = qw.GraphParams(6, 3)
# The checks run once before numpy exists, as in the CLI's exact commands.
assert qw.eigenvalue(p, 1) == 3 and qw.ScaledParams(0.25, 1).eps == 0.25
assert "numpy" not in sys.modules
import numpy as np

def outcome(call, x):
    try:
        result = call(x)
    except DomainError as exc:
        return type(exc), str(exc)
    return getattr(result, "__dict__", result)

g, t = qw.gamma_star(p), qw.run_time(p)
integers = {
    "eigenvalue": lambda x: qw.eigenvalue(p, x),
    "multiplicity": lambda x: qw.multiplicity(p, x),
    "overlap": lambda x: qw.overlap(p, x),
    "overlap_sq_factorial": lambda x: qw.overlap_sq_factorial(p, x),
    "distance_partition": lambda x: [c.tolist() for c in qw.distance_partition(p, x).classes],
    "validate_instance": lambda x: qw.validate_instance(p, x).checks,
}
reals = {
    "success_probability-gamma": (lambda x: qw.success_probability(p, x, t), 0.125),
    "success_probability-t": (lambda x: qw.success_probability(p, g, x), 0.5),
    "scan-t1": (lambda x: qw.scan(p, g, 0.0, x, 11).probs.tolist(), 2.5),
    "reduced_hamiltonian-gamma": (lambda x: qw.reduced_hamiltonian(p, x).tolist(), 0.125),
    "ScaledParams-eps": (lambda x: qw.ScaledParams(x, 1), 0.25),
}
for name, call in integers.items():
    assert outcome(call, np.int64(1)) == outcome(call, 1), name
    for bad in (np.True_, np.complex128(1)):
        kind, message = outcome(call, bad)
        assert kind is DomainError and "integer" in message, (name, bad)
for name, (call, f) in reals.items():
    for x in (np.int64(1), np.float32(f), np.float64(f)):
        assert outcome(call, x) == outcome(call, float(x)), (name, x)
    argument = name.split("-")[-1]
    for bad in (np.True_, np.complex128(1)):
        kind, message = outcome(call, bad)
        assert kind is DomainError and message.startswith(f"{argument} must be"), (name, bad)
print("ok")
"""


def test_numpy_scalars_are_known_when_numpy_comes_after_qwsearch():
    # A check that cached "numpy absent" when qwsearch was imported would
    # refuse np.int64 levels and np.float32 couplings here.
    out = _python(_LATE_NUMPY)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == b"ok\n"
