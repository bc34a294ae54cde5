"""The four workloads: seeded inputs, the timed operation, and its check.

Every workload is a closed loop with one client: the worker starts an
operation when the previous one has returned.  Operations come in rounds of
the workload's fixed mix, and whole rounds are run, so every run sees the mix
in the same proportions.  The seed decides n values, marked vertices and scan
windows; costs depend on the mix, not on the seed, so runs with different
seeds are comparable.

``run`` is the timed part.  ``summarize`` runs untimed in the worker and
reduces the result to plain data (checking it there when the output is too
large to ship); ``verify`` runs in the parent and returns failure reasons.
"""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import asdict

from . import checks

TRACE_MARK = "PERFBENCH-TRACE "


def run_time(n: int, k: int) -> float:
    """The paper's walk duration pi*n^(k/2)/(2*sqrt(k!)), used to place scan windows."""
    return math.pi * n ** (k / 2) / (2 * math.sqrt(math.factorial(k)))


def log_uniform_int(rng: random.Random, lo_exp: float, hi_exp: float) -> int:
    return round(10 ** rng.uniform(lo_exp, hi_exp))


def stratified_log_ints(rng: random.Random, lo_exp: float, hi_exp: float, count: int) -> list:
    """One log-uniform draw in each of ``count`` equal strata of [10^lo, 10^hi].

    Stratifying keeps the share of large n, which costs more, the same for
    every seed, so runs with different seeds compare.
    """
    width = (hi_exp - lo_exp) / count
    return [round(10 ** (lo_exp + width * (i + rng.random()))) for i in range(count)]


class Workload:
    name = ""
    why = ""
    # The report.CALIBRATION_KERNELS entry whose slow-downs track this workload's.
    calibration = "interpreter"

    def __init__(self, seed: int):
        self.seed = seed
        self.api = None

    def bind(self, api):
        """Give the worker's imported ``qwsearch`` package to the operations."""
        self.api = api

    def round(self, r: int) -> list:
        raise NotImplementedError

    def probes(self) -> list:
        """Operations run once after the measurement, untimed and not counted."""
        return []

    def run(self, op: dict):
        raise NotImplementedError

    def summarize(self, op: dict, result):
        return result

    def prepare_checks(self):
        """Load what ``verify`` needs before the run, so a missing reference fails early."""

    def verify(self, op: dict, summary) -> list:
        return []


class Sweep(Workload):
    name = "sweep"
    why = ("convergence_sweep rows, k=2..6, n log-uniform from 1e2 to 10^(8,6.4,4.9,3.7,2.8), "
           "where rows are accurate: paper's headline, reduced model. vs mpmath: p 1e-9, gap 1e-6")
    # log10 of the largest n per k.  The first rows that miss a check lie
    # 0.55 to 0.85 decades higher, and dense sampling below these limits found
    # no row further than 0.21 of a tolerance from the reference.  Above them
    # the binary64 reduced model loses the gap (ROADMAP item 2) and rows fail
    # or are refused; the workload keeps to operations that succeed, and
    # KNOWN_DEFECTS keeps that region on record.
    MAX_EXP = {2: 8.0, 3: 6.4, 4: 4.9, 5: 3.7, 6: 2.8}
    STRATA = 100
    # Rows beyond MAX_EXP, run and checked once after the timed loop, neither
    # timed nor counted, so that the program's accuracy there stays on record.
    KNOWN_DEFECTS = ((3, 10**8), (4, 10**6), (5, 10**6), (6, 10**5), (6, 10**6))

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(f"sweep/{seed}")
        ops = [{"k": k, "n": n} for k, hi in self.MAX_EXP.items()
               for n in stratified_log_ints(rng, 2.0, hi, self.STRATA)]
        rng.shuffle(ops)
        self._ops = ops
        self._reference = None

    def probes(self):
        return [{"k": k, "n": n} for k, n in self.KNOWN_DEFECTS]

    def prepare_checks(self):
        self._reference = checks.SweepReference()

    def round(self, r):
        return self._ops

    def run(self, op):
        return self.api.validation.convergence_sweep(op["k"], [op["n"]], jobs=1)

    def summarize(self, op, rows):
        return asdict(rows[0])

    def verify(self, op, row):
        return self._reference.check_row(op, row)


class Oracle(Workload):
    name = "oracle"
    why = ("validate_instance on J(5,2) and J(6,3), every marked vertex in seeded order: the "
           "dense full-space trust anchor, bypassed by sweep. N<=20 so 100 fit one run")
    # Two sizes whose costs do not overlap keep the median and the 90th
    # percentile inside one size's band rather than on the edge between two.
    INSTANCES = ((5, 2), (6, 3))

    def round(self, r):
        # Every vertex is marked once per round, in seeded order: the dense
        # Jacobi eigensolver takes 6 to 23 sweeps depending on w, so drawing w
        # at random would make the cost of a run depend on the seed.
        rng = random.Random(f"oracle/{self.seed}/{r}")
        ops = []
        for n, k in self.INSTANCES:
            marked = list(range(math.comb(n, k)))
            rng.shuffle(marked)
            ops += [{"n": n, "k": k, "w": w} for w in marked]
        return ops

    def run(self, op):
        q = self.api
        return q.validation.validate_instance(q.GraphParams(op["n"], op["k"]), w=op["w"])

    def summarize(self, op, report):
        return {"checks": [[c.name, c.residual, c.threshold] for c in report.checks],
                "all_passed": report.all_passed}

    def verify(self, op, summary):
        return checks.check_report(summary["checks"], summary["all_passed"])


class OracleBuild(Workload):
    name = "oracle-build"
    why = ("full_hamiltonian + distance_partition + check_partition_invariance on N=560..3003 "
           "(cap): full-space construction, no eigensolve, so the johnson layer is measured")
    INSTANCES = ((16, 3), (12, 5), (13, 6), (14, 5), (14, 6))
    calibration = "memory"

    def __init__(self, seed):
        super().__init__(seed)
        self._reference = checks.BuildReference()

    def round(self, r):
        rng = random.Random(f"oracle-build/{self.seed}/{r}")
        return [{"n": n, "k": k, "w": rng.randrange(math.comb(n, k))} for n, k in self.INSTANCES]

    def run(self, op):
        q = self.api
        params = q.GraphParams(op["n"], op["k"])
        gamma = q.coupling.gamma_star(params)
        h = q.johnson.full_hamiltonian(params, gamma, op["w"])
        part = q.johnson.distance_partition(params, op["w"])
        residual = q.validation.check_partition_invariance(params, op["w"])
        return gamma, h, part, residual

    def summarize(self, op, result):
        # The N x N matrix cannot be shipped to the parent: check it here.
        gamma, h, part, residual = result
        return {"reasons": self._reference.check(op, gamma, h, part.classes, residual)}

    def verify(self, op, summary):
        return summary["reasons"]


class Cli(Workload):
    name = "cli"
    why = ("python -m qwsearch, one child at a time: spectrum, gamma, simulate, sweep --jobs 1/2, "
           "scan --m 100001 (csv, json), validate J(6,3). Covers import, argparse and render")
    SCAN_M = 100001
    # Each command is a fresh interpreter, which slows with the host as a
    # fresh numpy import does and not as in-process work does.
    calibration = "startup"

    def __init__(self, seed, root=None):
        super().__init__(seed)
        self.root = root
        self.env = None
        self.traced = False
        self._reports = {}

    def round(self, r):
        rng = random.Random(f"cli/{self.seed}/{r}")

        def nk(lo_k, hi_k, hi_exp):
            k = rng.randint(lo_k, hi_k)
            return ["--n", str(log_uniform_int(rng, 2.0, hi_exp)), "--k", str(k)]

        def scan(fmt):
            args = nk(2, 4, 5.0)
            tr = run_time(int(args[1]), int(args[3]))
            t0 = rng.uniform(0.0, 0.5) * tr
            t1 = t0 + rng.uniform(0.5, 1.5) * tr
            return ["scan", *args, "--m", str(self.SCAN_M), "--t0", repr(t0), "--t1", repr(t1),
                    "--format", fmt]

        def sweep(jobs):
            n_list = ",".join(str(n) for n in stratified_log_ints(rng, 2.0, 5.0, 5))
            return ["sweep", "--k", "3", "--n-list", n_list, "--jobs", str(jobs)]

        commands = [
            ["spectrum", *nk(2, 6, 8.0)],
            ["gamma", *nk(3, 5, 8.0), "--format", "json"],
            ["simulate", *nk(2, 4, 5.0)],
            sweep(1),
            sweep(2),
            # Two scans in eight commands put the 90th percentile in the middle
            # of the scans' band, not on its edge with validate's.
            scan("csv"),
            scan("json"),
            ["validate", "--n", "6", "--k", "3", "--w", str(rng.randrange(20))],
        ]
        return [{"argv": argv} for argv in commands]

    def command(self, argv):
        if self.traced:
            return [sys.executable, str(self.root / "perfbench" / "cli_traced.py"), *argv]
        return [sys.executable, "-m", "qwsearch", *argv]

    def run(self, op):
        proc = subprocess.Popen(self.command(op["argv"]), cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        timer = threading.Timer(120.0, proc.kill)
        timer.start()
        err = []
        err_reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        err_reader.start()
        try:
            out = proc.stdout.read()
            err_reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
            proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, err[0], usage.ru_maxrss

    def summarize(self, op, result):
        code, out, err, maxrss_kb = result
        text = err.decode(errors="replace")
        spans = None
        if self.traced and TRACE_MARK in text:
            text, _, payload = text.rpartition(TRACE_MARK)
            spans = json.loads(payload)
        summary = {"exit": code, "maxrss_kb": maxrss_kb, "trace": spans,
                   "crashed": "Traceback" in text or code not in (0, 1, 2, 3)}
        if code != 0:
            summary["reasons"] = [f"exit {code}: {text.strip()[-300:]}"]
        else:
            try:
                summary["reasons"] = self._compare(op["argv"], out.decode())
            except (ValueError, KeyError, IndexError) as exc:
                summary["reasons"] = [f"unparseable output: {exc!r}"]
                summary["crashed"] = True
        return summary

    def verify(self, op, summary):
        return summary["reasons"]

    def _compare(self, argv, text):
        """Parsed report against the in-process public API, to 1e-12 relative."""
        if self.api is None:
            import qwsearch

            self.bind(qwsearch)
        q = self.api
        opts = dict(zip(argv[1::2], argv[2::2]))
        if argv[0] == "scan":
            return self._compare_scan(opts, text)
        rows = json.loads(text) if opts.get("--format") == "json" else _parse_csv(text)
        if argv[0] == "sweep":
            n_list = [int(v) for v in opts["--n-list"].split(",")]
            want = [asdict(r) for r in q.validation.convergence_sweep(int(opts["--k"]), n_list)]
        else:
            params = q.GraphParams(int(opts["--n"]), int(opts["--k"]))
            want = self._expected(argv[0], params, opts)
        if len(rows) != len(want):
            return [f"{len(rows)} rows, expected {len(want)}"]
        bad = sum(1 for got, exp in zip(rows, want) for key, value in exp.items()
                  if not _same(got[key], value))
        return [f"{bad} values differ from the in-process API"] if bad else []

    def _compare_scan(self, opts, text):
        import numpy as np

        q = self.api
        params = q.GraphParams(int(opts["--n"]), int(opts["--k"]))
        want = q.scan(params, q.gamma_star(params), float(opts["--t0"]), float(opts["--t1"]),
                      int(opts["--m"]))
        if opts.get("--format") == "json":
            rows = json.loads(text)
            got = np.array([[row["t"], row["prob"]] for row in rows], dtype=float)
        else:
            if not text.startswith("t,prob\n"):
                return ["scan csv header is not t,prob"]
            got = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        if got.shape != (want.times.size, 2):
            return [f"{got.shape[0]} rows, expected {want.times.size}"]
        exp = np.column_stack([want.times, want.probs])
        bad = int(np.sum(np.abs(got - exp) > checks.CLI_REL_TOL * np.maximum(abs(got), abs(exp))))
        return [f"{bad} values differ from the in-process API"] if bad else []

    def _expected(self, command, params, opts):
        q = self.api
        if command == "spectrum":
            return [{"ell": l, "lambda": q.eigenvalue(params, l),
                     "multiplicity": q.multiplicity(params, l),
                     "overlap_sq": q.overlap(params, l) ** 2} for l in range(params.k + 1)]
        gamma = q.gamma_star(params)
        if command == "gamma":
            closed = q.gamma_closed_form(q.from_graph(params)) if params.k in (3, 4, 5) else None
            return [{"n": params.n, "k": params.k, "gamma_star": gamma, "gamma_closed_form": closed,
                     "rel_diff": abs(closed - gamma) / gamma if closed is not None else None}]
        if command == "simulate":
            t = q.run_time(params)
            return [{"gamma": gamma, "t": t, "p_succ": q.success_probability(params, gamma, t)}]
        key = (params.n, params.k, int(opts["--w"]))
        if key not in self._reports:  # the costliest reference; inputs repeat
            self._reports[key] = q.validate_instance(params, w=key[2])
        report = self._reports[key]
        return [{"check": c.name, "passed": c.passed, "residual": c.residual,
                 "threshold": c.threshold} for c in report.checks]


def _parse_csv(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return [dict(zip(header, (_cell(v) for v in row))) for row in reader]


def _cell(value: str):
    if value == "":
        return None
    if value in ("true", "false"):
        return value == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def _same(got, expected) -> bool:
    if isinstance(expected, bool) or isinstance(expected, str) or expected is None:
        return got == expected
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    if isinstance(got, int) and isinstance(expected, int):
        return got == expected
    return checks.close(float(got), float(expected))


WORKLOADS = {cls.name: cls for cls in (Sweep, Oracle, OracleBuild, Cli)}


def make(name: str, seed: int, root=None) -> Workload:
    cls = WORKLOADS[name]
    return cls(seed, root=root) if cls is Cli else cls(seed)
