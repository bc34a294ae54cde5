"""Self-tests of the benchmark: tracer attribution, percentiles, output checks,
seeded inputs, and agreement between BENCHMARK.json and the code.

Run with ``python -m pytest perfbench``; none of them needs qwsearch.
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
from qwbench import checks, report, tracer, workloads  # noqa: E402


@pytest.fixture
def toy_package():
    """toypkg.inner.leaf, bound by name into toypkg.outer, which calls it twice."""
    pkg = types.ModuleType("toypkg")
    pkg.__path__ = []
    inner = types.ModuleType("toypkg.inner")
    exec("import time\ndef leaf(x):\n    time.sleep(0.002)\n    return x\n", inner.__dict__)
    outer = types.ModuleType("toypkg.outer")
    outer.leaf = inner.leaf
    exec("import time\ndef top():\n    time.sleep(0.002)\n    return leaf(1) + leaf(2)\n",
         outer.__dict__)
    modules = {"toypkg": pkg, "toypkg.inner": inner, "toypkg.outer": outer}
    sys.modules.update(modules)
    yield inner, outer
    for name in modules:
        sys.modules.pop(name, None)


def test_tracer_attributes_nested_calls_and_restores(toy_package):
    inner, outer = toy_package
    original_leaf, original_top = inner.leaf, outer.top
    targets = (
        tracer.Target("outer", "top", ("self_s",)),
        tracer.Target("inner", "leaf", ("self_s", "calls")),
        tracer.Target("outer", "removed", ("self_s",)),
    )
    t = tracer.Tracer(package="toypkg")
    t.op = 0
    t.install(targets)
    assert outer.leaf is not original_leaf and inner.leaf is outer.leaf
    assert outer.top() == 3
    t.restore()
    assert outer.leaf is original_leaf and inner.leaf is original_leaf
    assert outer.top is original_top
    assert t.absent == ["outer.removed"]

    records = t.records()
    assert [r["name"] for r in records] == ["outer.top", "inner.leaf", "inner.leaf"]
    assert [r["parent"] for r in records] == [-1, 0, 0]
    selfs = tracer.self_times(records)
    children = sum(r["end"] - r["start"] for r in records[1:])
    assert selfs[0] == pytest.approx(records[0]["end"] - records[0]["start"] - children)
    assert selfs[0] >= 0.002 and all(s >= 0.002 for s in selfs[1:])

    stats = tracer.layer_stats(records, [0], [0], absent=t.absent, targets=targets)
    assert stats["inner.leaf.calls"] == 2 and stats["inner.leaf.calls_per_op"] == 2
    assert not any(name.startswith("outer.removed") for name in stats)


def test_self_time_subtracts_the_union_of_overlapping_children():
    def span(start, end, parent):
        return {"name": "x", "start": start, "end": end, "parent": parent, "op": 0,
                "error": False, "extra": {}}

    records = [span(0.0, 10.0, -1), span(1.0, 4.0, 0), span(3.0, 6.0, 0), span(8.0, 12.0, 0)]
    assert tracer.self_times(records)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_errors_are_counted_and_spans_closed_when_a_call_raises(toy_package):
    inner, outer = toy_package
    exec("def leaf(x):\n    raise ValueError(x)\n", inner.__dict__)
    outer.leaf = inner.leaf
    targets = (tracer.Target("inner", "leaf", ("self_s", "errors")),)
    t = tracer.Tracer(package="toypkg")
    t.install(targets)
    with pytest.raises(ValueError):
        outer.top()
    t.restore()
    (record,) = t.records()
    assert record["error"] and record["end"] >= record["start"]
    stats = tracer.layer_stats([record], [record["op"]], [], targets=targets)
    assert stats["inner.leaf.errors"] == 1 and stats["inner.leaf.errors_per_op"] == 1


def test_nearest_rank_percentile_and_sample_counts():
    values = list(range(1, 101))
    assert report.nearest_rank(values, 0.9) == 90
    assert report.nearest_rank(values, 0.5) == 50
    assert report.samples_beyond(100, 0.9) == 10
    assert report.samples_beyond(99, 0.9) == 9
    assert report.min_samples(0.9) == 100
    assert report.nearest_rank([3.0, 1.0, 2.0], 0.9) == 3.0


def _true_row(n, k):
    reference = checks.SweepReference()
    gamma = float(checks.exact_gamma_star(n, k))
    t_run = workloads.run_time(n, k)
    model = reference.model(n, k, gamma, t_run)
    row = {"n": n, "N": math.comb(n, k), "gamma_star": gamma, "t_run": t_run,
           "p_at_trun": model["p"], "gap": model["gap"]}
    return reference, row


def test_perturbed_sweep_row_is_counted_as_a_failure():
    pytest.importorskip("mpmath")
    reference, row = _true_row(1000, 3)
    assert reference.check_row({"n": 1000, "k": 3}, row) == []
    assert 0.99 < row["p_at_trun"] < 1.0

    sweep = workloads.Sweep(seed=0)
    sweep._reference = reference
    perturbed_p = dict(row, p_at_trun=row["p_at_trun"] - 2e-9)
    perturbed_gap = dict(row, gap=row["gap"] * (1 + 1e-5))
    records = [
        {"i": i, "status": "ok", "detail": "", "op": {"n": 1000, "k": 3}, "summary": summary}
        for i, summary in enumerate((row, perturbed_p, perturbed_gap))
    ]
    records.append({"i": 3, "status": "refused", "detail": "NumericalError: degenerate",
                    "op": {"n": 1000, "k": 3}, "summary": None})
    failures, crashed = bench_run.classify(sweep, records)
    assert sorted(failures) == [1, 2, 3] and not crashed
    assert "p_at_trun" in failures[1][0] and "gap" in failures[2][0]


def test_build_check_accepts_the_graph_and_rejects_a_flipped_entry():
    np = pytest.importorskip("numpy")
    n, k, w, gamma = 6, 3, 4, 0.25
    reference = checks.BuildReference()
    incidence, adjacency = reference.graph(n, k)
    assert checks.colex_subsets(5, 2)[:4] == [(0, 1), (0, 2), (1, 2), (0, 3)]
    assert set(adjacency.sum(axis=1)) == {k * (n - k)}
    h = -gamma * adjacency.astype(float)
    h[w, w] -= 1.0
    distance = k - incidence @ incidence[w]
    classes = [np.flatnonzero(distance == l) for l in range(k + 1)]
    op = {"n": n, "k": k, "w": w}
    assert reference.check(op, gamma, h, classes, 0.0) == []
    h[0, 1] = h[1, 0] = -gamma if h[0, 1] == 0 else 0.0
    assert reference.check(op, gamma, h, classes, 0.0)


def test_seed_changes_the_inputs_and_repeats_them():
    for name in workloads.WORKLOADS:
        first = workloads.make(name, 1).round(0)
        assert first == workloads.make(name, 1).round(0), name
        assert first != workloads.make(name, 2).round(0), name
    sweep_ns = sorted(op["n"] for op in workloads.make("sweep", 1).round(0) if op["k"] == 2)
    assert len(sweep_ns) == workloads.Sweep.STRATA and 100 <= sweep_ns[0] < sweep_ns[-1] <= 10**8


def test_sweep_keeps_to_its_domain_and_probes_beyond_it():
    sweep = workloads.make("sweep", 3)
    limits = {k: 10 ** hi for k, hi in workloads.Sweep.MAX_EXP.items()}
    assert all(100 <= op["n"] <= limits[op["k"]] for op in sweep.round(0))
    assert all(op["n"] > limits[op["k"]] for op in sweep.probes())
    assert all(workloads.make(name, 3).probes() == [] for name in workloads.WORKLOADS
               if name != "sweep")


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(cls.name, cls.why) for cls in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.layer_metric_units()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25

