"""The benchmark's tracer wraps functions of this package by name.

A target it cannot find is left out of its report without an error, so
every target is checked here against the package.
"""

import importlib
import inspect
import types
from pathlib import Path

import qwsearch as qw

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "qwbench" / "tracer.py"


def _load_tracer():
    # Run from its source text, so no bytecode cache is written beside it.
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_target_is_a_function_of_the_package():
    tracer = _load_tracer()
    absent = []
    for target in tracer.TARGETS:
        try:
            module = importlib.import_module(f"qwsearch.{target.module}")
        except ImportError:
            module = None
        if not callable(getattr(module, target.function, None)):
            absent.append(target.name)
    assert tracer.TARGETS and absent == []
    # the tracer's dim3 count reads sym_eig's first argument by this name
    # when it is passed by keyword
    assert next(iter(inspect.signature(qw.dynamics.sym_eig).parameters)) == "matrix"
