"""Benchmark of qwsearch: end-to-end metrics per workload, or per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: sweep, oracle, oracle-build, cli (see perfbench/README.md).  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead.  Every output is
checked against an independent reference.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The set-up is timed in several fresh interpreters, the last of which goes on
to run the workload; the parent process only starts, checks and reports.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3          # fresh interpreters timed per run; setup_s is their median
RUN_TIMEOUT_S = 170.0

sys.path.insert(0, str(HERE))
from qwbench import report, tracer, workloads  # noqa: E402

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def start_worker(args, env):
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace)]
    started = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = perf_counter() - started
    if not line.startswith("ready "):
        proc.kill()
        proc.wait()
        fail(f"worker did not become ready (exit {proc.returncode})")
    return proc, setup_s, json.loads(line[len("ready "):])


def run_workload(args, env):
    """Time SETUPS fresh set-ups; the last worker runs the workload."""
    setups, import_s = [], []
    for i in range(SETUPS):
        proc, setup_s, ready = start_worker(args, env)
        setups.append(setup_s)
        import_s.append(ready["import_s"])
        if i < SETUPS - 1:
            proc.communicate("exit\n")
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        proc.stdin.write("run\n")
        proc.stdin.close()
        lines = proc.stdout.read().splitlines()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0 or not lines:
        fail(f"worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["records"] = [json.loads(line) for line in lines[:-1]]
    return result, setups, import_s, usage.ru_maxrss


def classify(workload, records):
    """Failure reasons per record: raised, refused, or missed its output check."""
    failures = {}
    crashed = False
    for rec in records:
        if rec["status"] != "ok":
            failures[rec["i"]] = [f"{rec['status']}: {rec['detail']}"]
            crashed |= rec["status"] == "crashed"
            continue
        reasons = workload.verify(rec["op"], rec["summary"])
        crashed |= bool(rec["summary"].get("crashed"))
        if reasons:
            failures[rec["i"]] = reasons
    return failures, crashed


def probe_reasons(workload, probes):
    """Each probe's op and its failure reasons; probes are neither timed nor counted."""
    checked = []
    for rec in probes:
        if rec["status"] != "ok":
            reasons = [f"{rec['status']}: {rec['detail']}"]
        else:
            reasons = workload.verify(rec["op"], rec["summary"])
        checked.append({"op": rec["op"], "reasons": reasons})
    return checked


def end_to_end(workload, result, failures, setups, worker_maxrss_kb):
    """Operation times are scaled to the nominal machine speed of their window."""
    records = result["records"]
    factors = report.window_speed_factors(result["calib"], workload.calibration)
    times = [rec["dt"] / factors[rec["window"]] for rec in records]
    ok = len(records) - len(failures)
    if report.samples_beyond(len(times), 0.9) < report.MIN_BEYOND:
        fail(f"only {len(times)} operations in the run; latency_p90_s needs "
             f"{report.min_samples(0.9)}")
    if workload.name == "cli":
        peak_kb = max(rec["summary"]["maxrss_kb"] for rec in records if rec["summary"])
    else:
        peak_kb = worker_maxrss_kb
    # Throughput per round of the mix, then the median over rounds, so one
    # stall on a shared machine does not move the figure.
    by_round = {}
    for rec, dt in zip(records, times):
        done, busy = by_round.get(rec["round"], (0, 0.0))
        by_round[rec["round"]] = (done + (rec["i"] not in failures), busy + dt)
    return {
        "ops_per_s": statistics.median([done / busy for done, busy in by_round.values()]),
        "latency_p50_s": statistics.median(times),
        "latency_p90_s": report.nearest_rank(times, 0.9),
        "success_rate": ok / len(records),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(result, import_s):
    metrics = dict(result["layers"])
    metrics["cli.import_s"] = statistics.median(result["child_import_s"] or import_s)
    plain = sum(r["dt"] for r in result["records"] if not r["traced"])
    traced = sum(r["dt"] for r in result["records"] if r["traced"])
    metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    return metrics


def result_name(args) -> str:
    return f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"


def print_summary(args, machine, result, failures, metrics, units, setups, probes):
    records = result["records"]
    measured = [r for r in records if not r["traced"]] if args.trace else records
    print(f"perfbench machine {json.dumps(machine)}")
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rounds={result['rounds']} ops={len(records)} "
          f"setups={len(setups)}")
    if not args.trace:
        kind = workloads.WORKLOADS[args.workload].calibration
        factors = report.window_speed_factors(result["calib"], kind)
        print(f"  machine speed factor per calibration window: median "
              f"{statistics.median(factors):.4f}, "
              f"range {min(factors):.4f}-{max(factors):.4f} ({kind} calibration kernel against "
              f"{report.CALIBRATION_KERNELS[kind].nominal_s} s); operation times are divided by it")
    error_rate = len(failures) / len(records)
    print(f"  {'error_rate':<52} {error_rate:>14.6g} ratio  "
          f"({len(failures)} of {len(records)} operations failed)")
    for name, value in metrics.items():
        note = ""
        if name.startswith("latency_"):
            note = f"  (n={len(measured)} operations)"
        elif name == "ops_per_s":
            note = f"  (median over {result['rounds']} rounds of {len(measured)} operations)"
        elif name == "setup_s":
            note = f"  (median of {len(setups)} fresh interpreters)"
        print(f"  {name:<52} {value:>14.6g} {units[name]}{note}")
    if args.trace and result["absent"]:
        print(f"  absent from the program (not reported): {', '.join(result['absent'])}")
    distinct = {}
    for i, reasons in failures.items():
        distinct.setdefault(json.dumps(records[i]["op"], sort_keys=True), reasons)
    if distinct:
        print(f"  failing inputs: {len(distinct)} distinct, all counted; every one is in "
              f"{OUT.name}/{result_name(args)}, the first 40 here:")
        for op, reasons in sorted(distinct.items())[:40]:
            print(f"    {op}: {'; '.join(reasons)[:160]}")
    if probes:
        print("  known defects outside the workload's inputs (run once, not timed, not counted):")
        for probe in probes:
            verdict = "; ".join(probe["reasons"]) or "passes its check"
            print(f"    {json.dumps(probe['op'], sort_keys=True)}: {verdict[:160]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (ROOT / "src" / "qwsearch" / "__init__.py").is_file():
        fail(f"no qwsearch sources under {ROOT / 'src'}; run from a checkout of the repository")
    workload = workloads.make(args.workload, args.seed, root=ROOT)
    workload.prepare_checks()

    result, setups, import_s, maxrss_kb = run_workload(args, report.child_env(ROOT))
    records = result["records"]
    failures, crashed = classify(workload, records)
    probes = probe_reasons(workload, result["probes"])
    if args.trace:
        metrics = per_layer(result, import_s)
        units = tracer.layer_metric_units()
    else:
        metrics = end_to_end(workload, result, failures, setups, maxrss_kb)
        units = END_TO_END_UNITS

    machine = report.machine_info(args.seed)
    print_summary(args, machine, result, failures, metrics, units, setups, probes)
    OUT.mkdir(exist_ok=True)
    with open(OUT / result_name(args), "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "calibrations_s": result.get("calib"),
                   "setups_s": setups, "metrics": metrics,
                   "failures": {str(i): r for i, r in failures.items()},
                   "probes": probes,
                   "ops": [{**r["op"], "round": r["round"], "window": r.get("window"),
                            "dt_s": r["dt"], "traced": r["traced"]} for r in records]}, fh)
    line = {
        "correct": not crashed,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
