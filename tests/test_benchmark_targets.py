"""The benchmark's tracer wraps functions of this package by name.

A target it cannot find is left out of its report without an error, so
every target is checked here against the package.
"""

import importlib
import inspect
import json
import types
from pathlib import Path

import qwsearch as qw
from qwsearch import cli

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


def test_a_traced_run_reports_every_per_layer_metric():
    # The calls a traced sweep, oracle and cli run make, under the tracer:
    # every per-layer metric must come out named and finite, as the
    # benchmark's closing JSON line needs it (the import time and the
    # tracer's overhead are measured by the benchmark itself, not here).
    tracer = _load_tracer()
    spy = tracer.Tracer()
    calls = (
        lambda: qw.convergence_sweep(3, [1000]),
        lambda: qw.validate_instance(qw.GraphParams(6, 3), 5),
        lambda: cli.render([(1, 0.5, "x")], ("a", "b", "c"), "json"),
    )
    spy.install()
    try:
        for op, call in enumerate(calls):
            spy.op = op
            call()
    finally:
        spy.restore()
    ops = range(len(calls))
    stats = tracer.layer_stats(spy.records(), ops, ops, absent=set(spy.absent))
    expected = set(tracer.layer_metric_units()) - {"cli.import_s", "trace.overhead_pct"}
    assert len(expected) == 64 and expected <= set(stats)
    json.dumps(stats, allow_nan=False)
    assert spy.absent == []
