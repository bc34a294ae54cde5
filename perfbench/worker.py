"""Benchmark worker: one fresh interpreter that sets up a workload and runs it.

Started by ``run.py`` as ``worker.py WORKLOAD SEED SECONDS TRACE``.  It
imports qwsearch, generates the inputs, runs one warm-up operation and
prints ``ready``; then it reads one line from stdin and either exits
(``exit``, when the parent only timed the set-up) or runs the workload
(``run``), printing one JSON line per operation and a closing JSON line
that also carries the workload's probes, run untimed after the measurement.
"""

import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
WALL_CAP_S = 140.0


def _import_program():
    started = perf_counter()
    import qwsearch

    import_s = perf_counter() - started
    src = (ROOT / "src").resolve()
    if src not in Path(qwsearch.__file__).resolve().parents:
        sys.exit(f"perfbench: imported qwsearch from {qwsearch.__file__}, not from {src}")
    return qwsearch, import_s


def execute(workload, op, index, package_errors, r=0):
    """Run one operation; the timer covers ``run`` only."""
    status, detail, result = "ok", "", None
    started = perf_counter()
    try:
        result = workload.run(op)
    except package_errors as exc:
        status, detail = "refused", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # the record reports it; the run goes on
        status, detail = "crashed", "".join(traceback.format_exception_only(exc)).strip()
    dt = perf_counter() - started
    summary = None
    if status == "ok":
        try:
            summary = workload.summarize(op, result)
        except Exception as exc:  # an output the checks cannot read
            status, detail = "crashed", "".join(traceback.format_exception_only(exc)).strip()
    return {"i": index, "round": r, "op": op, "dt": dt, "status": status, "detail": detail,
            "summary": summary, "traced": False}


def emit(record):
    """Send a record to the parent at once, so the worker's memory stays flat."""
    print(json.dumps(record), flush=True)


def measure(workload, seconds, min_ops, package_errors):
    from qwbench.report import CALIBRATION_KERNELS, calibrate

    every_s = CALIBRATION_KERNELS[workload.calibration].every_s
    count, r, calib = 0, 0, [calibrate(workload.calibration)]
    started = calibrated = perf_counter()
    while True:
        for op in workload.round(r):
            rec = execute(workload, op, count, package_errors, r)
            rec["window"] = len(calib) - 1
            emit(rec)
            count += 1
            if perf_counter() - calibrated >= every_s:
                calib.append(calibrate(workload.calibration))
                calibrated = perf_counter()
        r += 1
        elapsed = perf_counter() - started
        if (elapsed >= seconds and count >= min_ops) or elapsed >= WALL_CAP_S:
            calib.append(calibrate(workload.calibration))
            return {"rounds": r, "calib": calib}


def measure_traced(workload, seconds, package_errors, name, seed):
    """Run every operation twice, untraced and traced, in alternating order."""
    from qwbench import tracer as tr

    tracer = tr.Tracer()
    traced, completed, spans, absent, import_s, count, r = [], [], [], [], [], 0, 0

    def run_traced(op, index):
        nonlocal absent
        if name != "cli":
            tracer.op = index
            tracer.install()
            try:
                return execute(workload, op, index, package_errors, r)
            finally:
                tracer.restore()
        workload.traced = True
        rec = execute(workload, op, index, package_errors, r)
        workload.traced = False
        child = (rec["summary"] or {}).pop("trace", None)
        if child:
            base = len(spans)
            for s in child["spans"]:
                s["op"] = index
                s["parent"] = s["parent"] + base if s["parent"] >= 0 else -1
            spans.extend(child["spans"])
            absent = child["absent"]
            import_s.append(child["import_s"])
        return rec

    started = perf_counter()
    while True:
        for op in workload.round(r):
            untraced_first = count % 4 == 0
            if untraced_first:
                emit(execute(workload, op, count, package_errors, r))
                count += 1
            rec = run_traced(op, count)
            rec["traced"] = True
            traced.append(count)
            if rec["status"] == "ok" and rec["summary"].get("exit", 0) == 0:
                completed.append(count)
            emit(rec)
            count += 1
            if not untraced_first:
                emit(execute(workload, op, count, package_errors, r))
                count += 1
        r += 1
        if perf_counter() - started >= min(seconds, WALL_CAP_S):
            break
    if name != "cli":
        spans, absent = tracer.records(), tracer.absent
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-{name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    return {"rounds": r, "absent": sorted(set(absent)),
            "layers": tr.layer_stats(spans, traced, completed, absent=set(absent)),
            "child_import_s": import_s}


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), int(argv[3])
    api, import_s = _import_program() if name != "cli" else (None, None)
    from qwbench import report, workloads

    workload = workloads.make(name, seed, root=ROOT)
    package_errors = ()
    if api is None:
        workload.env = report.child_env(ROOT)
    else:
        workload.bind(api)
        package_errors = (api.DomainError, api.NumericalError)
    execute(workload, workload.round(0)[0], -1, package_errors)
    print("ready " + json.dumps({"import_s": import_s}), flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    if trace:
        result = measure_traced(workload, seconds, package_errors, name, seed)
    else:
        result = measure(workload, seconds, report.min_samples(0.9), package_errors)
    result["probes"] = [execute(workload, op, -2, package_errors) for op in workload.probes()]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
